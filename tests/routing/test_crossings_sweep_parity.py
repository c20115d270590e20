"""Parity: the bbox sweep candidate index equals the all-pairs scan.

``_candidate_pairs`` replaced the historical O(R²) per-pair
``bboxes_disjoint`` filter; the sweep must surface *exactly* the
non-disjoint pairs (touching boxes included, ``None`` boxes excluded),
and the full ``count_crossings`` result — including dict iteration
order, which the Eq. 7 fidelity product folds over — must match a
transcription of the old pair loop over the scalar references.

The batched orientation pass is pinned here too:
``proper_crossings_mask`` row-for-row against the scalar
``segments_intersect``, and ``_pair_intersection_counts`` pair-for-pair
against the scalar ``count_pairwise_crossings`` loop it replaced in the
whole-layout scan.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import SiteGrid
from repro.geometry.segments import (
    count_pairwise_crossings,
    proper_crossings_mask,
    segments_intersect,
)
from repro.legalization import BinGrid
from repro.netlist import QuantumNetlist, Qubit, Resonator, WireBlock
from repro.routing.crossings import (
    CrossingReport,
    _candidate_pairs,
    _pair_intersection_counts,
    build_traces,
    count_crossings,
    trace_bbox,
)
from test_crossings_parity import reference_bridged


def bboxes_disjoint(a: tuple, b: tuple) -> bool:
    """The historical all-pairs bbox filter (scalar reference)."""
    if a is None or b is None:
        return True
    return a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]


# -- candidate index vs. all-pairs filter ------------------------------------
coord = st.floats(-3.0, 12.0, allow_nan=False, allow_infinity=False)
# Snapping some coordinates to a coarse lattice makes touching/equal
# edges (the strict-inequality boundary of bboxes_disjoint) common.
lattice = st.integers(-2, 10).map(float)
span = st.tuples(
    st.one_of(lattice, coord), st.one_of(lattice, coord)
).map(sorted)
bbox = st.one_of(
    st.none(),
    st.tuples(span, span).map(
        lambda xy: (xy[0][0], xy[1][0], xy[0][1], xy[1][1])
    ),
)


@settings(max_examples=200, deadline=None)
@given(boxes=st.lists(bbox, max_size=12))
def test_candidate_pairs_match_all_pairs_filter(boxes):
    bboxes = {(k, k + 1): box for k, box in enumerate(boxes)}
    keys = sorted(bboxes)
    want = [
        (key_a, key_b)
        for a_pos, key_a in enumerate(keys)
        for key_b in keys[a_pos + 1 :]
        if not bboxes_disjoint(bboxes[key_a], bboxes[key_b])
    ]
    assert _candidate_pairs(keys, bboxes) == want


# -- full report vs. the historical pair loop --------------------------------
def reference_count_crossings(netlist, bins):
    """The original all-pairs ``count_crossings`` body, on scalar kernels."""
    lb = bins.grid.lb
    report = CrossingReport()
    traces = build_traces(netlist, lb)
    keys = sorted(traces)
    bboxes = {key: trace_bbox(traces[key]) for key in keys}
    per_res = {key: 0 for key in keys}
    for key in keys:
        bridged = reference_bridged(traces[key], key, bins)
        report.bridged_blocks[key] = sorted(bridged)
        per_res[key] += len(bridged)
    for a_pos, key_a in enumerate(keys):
        for key_b in keys[a_pos + 1 :]:
            if bboxes_disjoint(bboxes[key_a], bboxes[key_b]):
                continue
            count = count_pairwise_crossings(traces[key_a], traces[key_b])
            if count:
                report.pair_crossings[(key_a, key_b)] = count
                per_res[key_a] += count
                per_res[key_b] += count
    report.per_resonator = per_res
    return report


COLS, ROWS = 20, 12
site_st = st.tuples(st.integers(0, COLS - 1), st.integers(3, ROWS - 1))


@st.composite
def layouts(draw):
    nl = QuantumNetlist()
    qubit_xs = (1.5, 7.5, 13.5, 18.5)
    for index, x in enumerate(qubit_xs):
        nl.add_qubit(Qubit(index=index, w=3, h=3, x=x, y=1.5))
    bins = BinGrid(SiteGrid(COLS, ROWS))
    for q in nl.qubits:
        bins.occupy_rect(q.rect, q.node_id)
    endpoints = draw(
        st.sets(
            st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
            max_size=5,
        )
    )
    taken = set()
    for qi, qj in sorted(endpoints):
        if nl.has_resonator(qi, qj):
            continue
        sites = [
            s
            for s in sorted(draw(st.sets(site_st, min_size=1, max_size=9)))
            if s not in taken
        ]
        if not sites:
            continue
        r = nl.add_resonator(
            Resonator(qi=qi, qj=qj, wirelength=float(len(sites)))
        )
        r.blocks = [
            WireBlock(
                resonator_key=r.key, ordinal=k, x=c + 0.5, y=w + 0.5
            )
            for k, (c, w) in enumerate(sites)
        ]
        for block in r.blocks:
            bins.occupy(*bins.grid.site_of(block.center), block.node_id)
            taken.update(
                bins.grid.site_of(block.center) for block in r.blocks
            )
    return (nl, bins)


@settings(max_examples=50, deadline=None)
@given(layout=layouts())
def test_count_crossings_matches_all_pairs_reference(layout):
    nl, bins = layout
    got = count_crossings(nl, bins)
    want = reference_count_crossings(nl, bins)
    assert got.per_resonator == want.per_resonator
    assert got.pair_crossings == want.pair_crossings
    assert got.bridged_blocks == want.bridged_blocks
    # Dict iteration order feeds the Eq. 7 product: it must match too.
    assert list(got.pair_crossings) == list(want.pair_crossings)
    assert list(got.per_resonator) == list(want.per_resonator)
    assert got.total == want.total


# -- batched orientation tests vs. the scalar kernels ------------------------
point_st = st.tuples(
    st.one_of(
        st.integers(-3, 12).map(float),
        st.floats(-3.0, 12.0, allow_nan=False, allow_infinity=False),
    ),
    st.one_of(
        st.integers(-3, 12).map(float),
        st.floats(-3.0, 12.0, allow_nan=False, allow_infinity=False),
    ),
)
segment_st = st.tuples(point_st, point_st)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(segment_st, segment_st), max_size=20))
def test_crossings_mask_matches_scalar_kernel(rows):
    """Shared endpoints, collinear touching, proper crossings — all agree."""
    want = [
        segments_intersect(p1, p2, q1, q2)
        for (p1, p2), (q1, q2) in rows
    ]
    stack = lambda pts: np.array(pts, dtype=np.float64).reshape(len(rows), 2)
    got = proper_crossings_mask(
        stack([p1 for (p1, _), _ in rows]),
        stack([p2 for (_, p2), _ in rows]),
        stack([q1 for _, (q1, _) in rows]),
        stack([q2 for _, (_, q2) in rows]),
    )
    assert got.tolist() == want


@settings(max_examples=100, deadline=None)
@given(
    traces=st.lists(st.lists(segment_st, max_size=6), min_size=2, max_size=6),
    data=st.data(),
)
def test_pair_intersection_counts_match_scalar_loop(traces, data):
    keyed = {(k, k + 1): trace for k, trace in enumerate(traces)}
    keys = sorted(keyed)
    all_pairs = [
        (a, b) for i, a in enumerate(keys) for b in keys[i + 1 :]
    ]
    pairs = data.draw(st.permutations(all_pairs).map(lambda p: p[: len(p)]))
    got = _pair_intersection_counts(keyed, pairs)
    assert got == {
        pair: count_pairwise_crossings(keyed[pair[0]], keyed[pair[1]])
        for pair in pairs
    }


def test_pair_intersection_counts_empty_inputs():
    assert _pair_intersection_counts({}, []) == {}
    keyed = {(0, 1): [], (2, 3): []}
    assert _pair_intersection_counts(keyed, [((0, 1), (2, 3))]) == {
        ((0, 1), (2, 3)): 0
    }


def test_empty_and_single_trace_layouts():
    nl = QuantumNetlist()
    nl.add_qubit(Qubit(index=0, w=3, h=3, x=1.5, y=1.5))
    nl.add_qubit(Qubit(index=1, w=3, h=3, x=13.5, y=1.5))
    bins = BinGrid(SiteGrid(COLS, ROWS))
    for q in nl.qubits:
        bins.occupy_rect(q.rect, q.node_id)
    assert count_crossings(nl, bins).total == 0  # no resonators at all

    r = nl.add_resonator(Resonator(qi=0, qj=1, wirelength=1.0))
    r.blocks = []  # a resonator with no blocks has an empty trace set
    report = count_crossings(nl, bins)
    assert report.total == 0
    assert _candidate_pairs([r.key], {r.key: trace_bbox([])}) == []