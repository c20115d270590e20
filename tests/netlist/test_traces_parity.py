"""Parity: the batched array Prim equals the scalar reference.

The reference below is a faithful transcription of the original
``_closest_pair`` / ``mst_segments`` double loops.  The batched Prim —
one tree in ``mst_segments``, every resonator of a layout in
``build_traces`` — must return the *same segment lists*: same tree
growth order, same tie-breaks (first minimum in tree-insertion ×
candidate order, first minimal point pair in row-major order), same
endpoints, because both the crossing counter and the Eq. 4 hotspot walk
consume these segments directly and the flow output is held
bit-identical.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.netlist.traces as traces_module
from repro.core.config import QGDPConfig
from repro.core.pipeline import QGDPFlow
from repro.legalization import PAPER_ENGINE_ORDER
from repro.netlist import QuantumNetlist, Qubit, Resonator, WireBlock
from repro.netlist.clusters import block_clusters
from repro.netlist.traces import (
    build_traces,
    mst_segments,
    qubit_boundary,
    resonator_trace,
)
from repro.topologies import PAPER_TOPOLOGIES, grid_topology


def reference_closest_pair(points_a, points_b):
    """The original scalar ``_closest_pair``, verbatim."""
    best = None
    for pa in points_a:
        for pb in points_b:
            d2 = (pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2
            if best is None or d2 < best[0]:
                best = (d2, pa, pb)
    return best


def reference_mst_segments(terminal_sets):
    """The original scalar Prim, verbatim."""
    if len(terminal_sets) < 2:
        return []
    in_tree = [0]
    out = list(range(1, len(terminal_sets)))
    segments = []
    while out:
        best = None
        for i in in_tree:
            for j in out:
                d2, pa, pb = reference_closest_pair(
                    terminal_sets[i], terminal_sets[j]
                )
                if best is None or d2 < best[0]:
                    best = (d2, pa, pb, j)
        _, pa, pb, j = best
        segments.append((pa, pb))
        in_tree.append(j)
        out.remove(j)
    return segments


# A small coordinate alphabet forces plenty of exact distance ties
# (duplicate points, collinear sets, symmetric gaps) so the tie-break
# replication is actually exercised, not just the generic path.
tied_coord = st.sampled_from([0.0, 1.0, 2.0, 2.5, 4.0, 7.25])
free_coord = st.floats(-5.0, 15.0, allow_nan=False, allow_infinity=False)
point = st.tuples(
    st.one_of(tied_coord, free_coord), st.one_of(tied_coord, free_coord)
)
terminal_set = st.lists(point, min_size=1, max_size=6)
terminal_sets = st.lists(terminal_set, min_size=0, max_size=6)


@settings(max_examples=200, deadline=None)
@given(sets=terminal_sets)
def test_mst_segments_match_reference_exactly(sets):
    got = mst_segments(sets)
    want = reference_mst_segments(sets)
    assert got == want


def test_degenerate_inputs():
    assert mst_segments([]) == []
    assert mst_segments([[(1.0, 2.0)]]) == []  # single terminal set
    # Collinear duplicated sets: every cross distance ties.
    collinear = [[(0.0, 0.0), (1.0, 0.0)], [(2.0, 0.0)], [(1.0, 0.0)]]
    assert mst_segments(collinear) == reference_mst_segments(collinear)


def test_segment_endpoints_are_the_original_tuples():
    sets = [[(0.0, 0.0), (4.0, 0.0)], [(5.0, 0.0), (20.0, 0.0)]]
    ((pa, pb),) = mst_segments(sets)
    assert pa is sets[0][1] and pb is sets[1][0]


site = st.tuples(st.integers(0, 19), st.integers(0, 11))


@settings(max_examples=60, deadline=None)
@given(sites=st.sets(site, min_size=0, max_size=12))
def test_resonator_trace_matches_reference_pipeline(sites):
    nl = QuantumNetlist()
    nl.add_qubit(Qubit(index=0, w=3, h=3, x=1.5, y=1.5))
    nl.add_qubit(Qubit(index=1, w=3, h=3, x=17.5, y=1.5))
    r = nl.add_resonator(
        Resonator(qi=0, qj=1, wirelength=max(1.0, float(len(sites))))
    )
    r.blocks = [
        WireBlock(resonator_key=r.key, ordinal=k, x=c + 0.5, y=w + 0.5)
        for k, (c, w) in enumerate(sorted(sites))
    ]

    from repro.netlist.clusters import block_clusters
    from repro.netlist.traces import qubit_boundary

    terminal_sets = [
        qubit_boundary(nl.qubit(0)),
        qubit_boundary(nl.qubit(1)),
    ]
    for cluster in block_clusters(r, 1.0):
        terminal_sets.append([(b.x, b.y) for b in cluster])

    assert resonator_trace(nl, r, 1.0) == reference_mst_segments(
        terminal_sets
    )


def reference_traces(netlist: QuantumNetlist, lb: float) -> dict:
    """The scalar Prim over each resonator's terminal sets: its qubits'
    boundary points and its clusters' block centres."""
    traces = {}
    for resonator in netlist.resonators:
        terminal_sets = [
            qubit_boundary(netlist.qubit(resonator.qi)),
            qubit_boundary(netlist.qubit(resonator.qj)),
        ]
        for cluster in block_clusters(resonator, lb):
            terminal_sets.append([(b.x, b.y) for b in cluster])
        traces[resonator.key] = reference_mst_segments(terminal_sets)
    return traces


def assert_traces_match_reference(netlist: QuantumNetlist, lb: float) -> None:
    got = build_traces(netlist, lb)
    assert list(got) == [r.key for r in netlist.resonators]
    assert got == reference_traces(netlist, lb)
    for resonator in netlist.resonators:
        assert resonator_trace(netlist, resonator, lb) == got[resonator.key]


# Pad sizes differ per qubit, pad centres and block sites share a small
# alphabet (exact distance ties everywhere), blocks of two resonators may
# sit on one site, and a resonator may have no block or several clusters.
pad = st.tuples(
    st.sampled_from([1, 2, 3]),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([0.5, 1.5, 2.0, 3.5, 6.0]),
    st.sampled_from([0.5, 1.5, 2.0, 3.5, 6.0]),
)
block_sites = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 5)), max_size=9
)


@st.composite
def netlists(draw):
    pads = draw(st.lists(pad, min_size=2, max_size=7))
    nl = QuantumNetlist()
    for index, (w, h, x, y) in enumerate(pads):
        nl.add_qubit(Qubit(index=index, w=w, h=h, x=x, y=y))
    pairs = [(i, j) for i in range(len(pads)) for j in range(i + 1, len(pads))]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    for qi, qj in chosen:
        resonator = nl.add_resonator(Resonator(qi=qi, qj=qj, wirelength=1.0))
        resonator.blocks = [
            WireBlock(
                resonator_key=resonator.key,
                ordinal=k,
                x=col + 0.5,
                y=row + 0.5,
            )
            for k, (col, row) in enumerate(draw(block_sites))
        ]
    return nl


@settings(max_examples=150, deadline=None)
@given(nl=netlists(), chunk=st.sampled_from([1, 150, 300, 1000, 1 << 15]))
def test_build_traces_match_reference_on_generated_netlists(nl, chunk):
    """Chunks from one pair up to the default: a chunk of ``chunk``
    squared distances holds ``chunk // (|A||B|)`` pairs of a shape (at
    least one), so small chunks split every shape group several ways."""
    with mock.patch.object(traces_module, "_CHUNK_ENTRIES", chunk):
        assert_traces_match_reference(nl, 1.0)


@pytest.mark.parametrize("topology", PAPER_TOPOLOGIES)
def test_build_traces_match_reference_on_protocol_layouts(topology):
    """The GP layout and the five engines' LG layouts of the paper
    protocol: 36 layouts over the six topologies."""
    flow = QGDPFlow(topology, QGDPConfig())
    flow.place()
    gp = flow.netlist.snapshot()
    assert_traces_match_reference(flow.netlist, flow.config.lb)
    for engine in PAPER_ENGINE_ORDER:
        flow.restore(gp)
        flow.legalize(engine)
        assert_traces_match_reference(flow.netlist, flow.config.lb)


def test_build_traces_match_reference_at_side_24():
    """576 qubits and 1,104 resonators: the (12, 12) shape group (every
    resonator's qubit pair, at least) spans several default-size chunks
    of 227 pairs."""
    flow = QGDPFlow(grid_topology(24))
    flow.place()
    flow.legalize("qgdp")
    assert_traces_match_reference(flow.netlist, flow.config.lb)
