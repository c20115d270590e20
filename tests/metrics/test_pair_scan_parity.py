"""Parity: the nearby-pair scans equal their all-pairs scalar references.

``check_legality``, ``qubit_spacing_violations`` and
``qubit_hotspot_pairs`` take their candidate pairs from
:func:`~repro.geometry.near_pairs` and keep their scalar bodies.  The
references below are those bodies over *every* pair in nested-loop
order, so the scans must return the same lists, item for item —
``check_legality`` in ``(i, j)`` order over its rects, which it now
builds only for violators (its bounds come from position arrays).  Lattice
positions make gaps of exactly ``min_spacing`` and exactly ``reach``
(and touching, zero-depth overlaps) common.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frequency.hotspots import HotspotPair, qubit_hotspot_pairs
from repro.frequency.proximity import tau
from repro.geometry import SiteGrid, adjacency_length, gap_between
from repro.metrics import check_legality, qubit_spacing_violations
from repro.metrics.legality import LegalityViolation
from repro.netlist import QuantumNetlist, Qubit, Resonator, WireBlock


def reference_spacing(netlist, min_spacing, tol=1e-6):
    """The all-pairs ``qubit_spacing_violations`` loop."""
    violations = []
    qubits = netlist.qubits
    for a_pos, qa in enumerate(qubits):
        for qb in qubits[a_pos + 1 :]:
            gap = gap_between(qa.rect, qb.rect)
            if gap < min_spacing - tol:
                violations.append(
                    LegalityViolation(
                        "qubit_spacing",
                        ("q", qa.index),
                        ("q", qb.index),
                        min_spacing - gap,
                    )
                )
    return violations


def reference_qubit_hotspots(netlist, reach, delta_c):
    """The all-pairs ``qubit_hotspot_pairs`` loop."""
    pairs = []
    qubits = netlist.qubits
    for a_pos, qa in enumerate(qubits):
        for qb in qubits[a_pos + 1 :]:
            gap = gap_between(qa.rect, qb.rect)
            if gap > reach:
                continue
            t = tau(qa.frequency, qb.frequency, delta_c)
            if t <= 0.0:
                continue
            adjacency = adjacency_length(qa.rect, qb.rect, reach)
            if adjacency <= 0.0:
                continue
            decay = max(0.0, 1.0 - gap / reach)
            contribution = adjacency * decay * t
            if contribution > 0.0:
                pairs.append(
                    HotspotPair(
                        ("q", qa.index), ("q", qb.index),
                        adjacency, gap, t, contribution,
                    )
                )
    return pairs


def _all_rects(netlist: QuantumNetlist) -> list:
    out = [(("q", q.index), q.rect) for q in netlist.qubits]
    out.extend(
        (("b", b.resonator_key, b.ordinal), b.rect) for b in netlist.wire_blocks
    )
    return out


def reference_legality(netlist, grid, tol=1e-6):
    """Border loop, then every rect pair in ``(i, j)`` order."""
    violations = []
    border = grid.border
    rects = _all_rects(netlist)
    for cid, rect in rects:
        if not rect.inside(border, tol):
            excess = max(
                border.xlo - rect.xlo,
                rect.xhi - border.xhi,
                border.ylo - rect.ylo,
                rect.yhi - border.yhi,
            )
            violations.append(LegalityViolation("border", cid, None, excess))
    for i, (cid_i, rect_i) in enumerate(rects):
        for cid_j, rect_j in rects[i + 1 :]:
            if rect_i.overlaps(rect_j, tol):
                overlap = min(
                    rect_i.xhi - rect_j.xlo,
                    rect_j.xhi - rect_i.xlo,
                    rect_i.yhi - rect_j.ylo,
                    rect_j.yhi - rect_i.ylo,
                )
                violations.append(
                    LegalityViolation("overlap", cid_i, cid_j, overlap)
                )
    return violations


# Half-site lattice positions (gaps of exactly 1.0 and 2.0 between 3x3
# qubits), jittered off-lattice now and then.
lattice = st.integers(2, 36).map(lambda v: v / 2.0)
coord = st.one_of(
    lattice, lattice, st.floats(1.0, 18.0, allow_nan=False, allow_infinity=False)
)
freq_st = st.sampled_from([5.0, 5.01, 5.03, 5.05, 5.2])


@st.composite
def netlists(draw):
    nl = QuantumNetlist()
    num_qubits = draw(st.integers(0, 14))
    for index in range(num_qubits):
        size = draw(st.sampled_from([3.0, 3.0, 2.0]))
        nl.add_qubit(
            Qubit(
                index=index, w=size, h=size,
                x=draw(coord), y=draw(coord), frequency=draw(freq_st),
            )
        )
    for qi in range(num_qubits - 1):
        if not draw(st.booleans()):
            continue
        r = nl.add_resonator(Resonator(qi=qi, qj=qi + 1, wirelength=3.0))
        sites = draw(st.lists(st.tuples(coord, coord), max_size=5))
        r.blocks = [
            WireBlock(resonator_key=r.key, ordinal=k, x=x, y=y)
            for k, (x, y) in enumerate(sites)
        ]
    return nl


@settings(max_examples=150, deadline=None)
@given(nl=netlists(), min_spacing=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_spacing_violations_match_all_pairs(nl, min_spacing):
    got = qubit_spacing_violations(nl, min_spacing)
    assert got == reference_spacing(nl, min_spacing)


@settings(max_examples=150, deadline=None)
@given(nl=netlists(), reach=st.sampled_from([0.5, 1.0, 2.0, 3.5]))
def test_qubit_hotspot_pairs_match_all_pairs(nl, reach):
    got = qubit_hotspot_pairs(nl, reach, 0.04)
    assert got == reference_qubit_hotspots(nl, reach, 0.04)


@settings(max_examples=150, deadline=None)
@given(nl=netlists(), tol=st.sampled_from([1e-6, 0.0, 0.5]))
def test_check_legality_matches_all_pairs_in_pair_order(nl, tol):
    grid = SiteGrid(16, 16)
    assert check_legality(nl, grid, tol) == reference_legality(nl, grid, tol)


def _row(xs, frequency=5.0):
    nl = QuantumNetlist()
    for index, x in enumerate(xs):
        nl.add_qubit(
            Qubit(index=index, w=3, h=3, x=x, y=5.5, frequency=frequency)
        )
    return nl


def test_gap_exactly_at_min_spacing_and_reach():
    # Gap 1.0 (= min_spacing) is no violation but a hotspot, gap 2.0
    # (= reach) passes the reach test and decays to nothing, and gap 0.5
    # is both a violation and a hotspot.
    nl = _row([1.5, 5.5, 10.5, 14.0])
    assert qubit_spacing_violations(nl, 1.0) == reference_spacing(nl, 1.0)
    assert [(v.id_a, v.id_b) for v in qubit_spacing_violations(nl, 1.0)] == [
        (("q", 2), ("q", 3))
    ]
    got = qubit_hotspot_pairs(nl, 2.0, 0.04)
    assert got == reference_qubit_hotspots(nl, 2.0, 0.04)
    assert [(p.id_a, p.id_b) for p in got] == [
        (("q", 0), ("q", 1)),
        (("q", 2), ("q", 3)),
    ]


def test_empty_netlist_is_legal():
    grid = SiteGrid(4, 4)
    assert check_legality(QuantumNetlist(), grid) == []
    assert qubit_spacing_violations(QuantumNetlist(), 1.0) == []
    assert qubit_hotspot_pairs(QuantumNetlist(), 2.0, 0.04) == []


def test_border_and_overlap_violations_pinned():
    # One component past each border, then one overlapping pair: borders
    # come first in component order (qubits, then blocks), then overlaps.
    grid = SiteGrid(10, 8)
    nl = QuantumNetlist()
    nl.add_qubit(Qubit(index=0, w=3, h=3, x=1.0, y=4.0))  # left by 0.5
    nl.add_qubit(Qubit(index=1, w=3, h=3, x=5.0, y=7.25))  # top by 0.75
    nl.add_qubit(Qubit(index=2, w=3, h=3, x=5.0, y=3.0))
    r = nl.add_resonator(Resonator(qi=0, qj=1, wirelength=3.0))
    r.blocks = [
        WireBlock(resonator_key=r.key, ordinal=0, x=9.75, y=2.5),  # right
        WireBlock(resonator_key=r.key, ordinal=1, x=2.5, y=0.25),  # bottom
        WireBlock(resonator_key=r.key, ordinal=2, x=6.5, y=3.5),  # into q2
    ]
    got = check_legality(nl, grid)
    assert got == reference_legality(nl, grid)
    assert [(v.kind, v.id_a, v.id_b, v.amount) for v in got] == [
        ("border", ("q", 0), None, 0.5),
        ("border", ("q", 1), None, 0.75),
        ("border", ("b", (0, 1), 0), None, 0.25),
        ("border", ("b", (0, 1), 1), None, 0.25),
        ("overlap", ("q", 2), ("b", (0, 1), 2), 0.5),
    ]
