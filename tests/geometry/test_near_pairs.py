"""Parity: ``near_pairs`` equals a brute-force filter over every box pair.

The scan must return *exactly* the ``i < j`` pairs whose per-axis gap
``max(lo) - min(hi)`` is at most the cutoff on both axes, in nested-loop
order — touching boxes, zero-size boxes, duplicates and negative cutoffs
(overlap depth) included, and however many chunks the queries and
candidates span.  Column-packed lattices (many boxes sharing one ``xlo``,
as the blocks of a legal layout do) exercise the column-group windows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.geometry.rect as rect_module
from repro.geometry import near_pairs


def brute_force(lo: list, hi: list, cutoff: float) -> list:
    """The all-pairs filter the sweep replaces (scalar reference)."""
    return [
        (i, j)
        for i in range(len(lo))
        for j in range(i + 1, len(lo))
        if all(
            max(lo[i][k], lo[j][k]) - min(hi[i][k], hi[j][k]) <= cutoff
            for k in (0, 1)
        )
    ]


def as_list(pairs: np.ndarray) -> list:
    return [tuple(row) for row in pairs.tolist()]


# Lattice coordinates make touching edges and exact-cutoff gaps common;
# free floats cover everything in between.
coord = st.one_of(
    st.integers(-4, 8).map(lambda v: v / 2.0),
    st.floats(-4.0, 8.0, allow_nan=False, allow_infinity=False),
)
size = st.one_of(
    st.just(0.0), st.integers(0, 6).map(lambda v: v / 2.0), st.floats(0.0, 3.0)
)
box = st.tuples(coord, coord, size, size).map(
    lambda b: ((b[0], b[1]), (b[0] + b[2], b[1] + b[3]))
)
cutoff_st = st.one_of(
    st.sampled_from([-1.0, -1e-6, 0.0, 0.5, 1.0, 2.0]),
    st.floats(-2.0, 3.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def box_sets(draw):
    boxes = draw(st.lists(box, max_size=24))
    if boxes:  # plant exact duplicates
        boxes += draw(st.lists(st.sampled_from(boxes), max_size=4))
        boxes = draw(st.permutations(boxes))
    return boxes


@settings(max_examples=300, deadline=None)
@given(boxes=box_sets(), cutoff=cutoff_st)
def test_near_pairs_match_brute_force(boxes, cutoff):
    lo = [b[0] for b in boxes]
    hi = [b[1] for b in boxes]
    got = near_pairs(
        np.array(lo).reshape(-1, 2), np.array(hi).reshape(-1, 2), cutoff
    )
    assert got.shape[1] == 2
    assert as_list(got) == brute_force(lo, hi, cutoff)


def test_candidates_beyond_one_chunk():
    """Boxes sharing one x-range: every pair is an x-candidate."""
    rng = np.random.default_rng(7)
    n = 300
    assert n * (n - 1) // 2 > rect_module._PAIR_CHUNK
    lo = np.column_stack([rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 200.0, n)])
    lo[::50] = lo[1::50]  # duplicates across chunk boundaries
    hi = lo + rng.uniform(0.0, 2.0, (n, 2))
    for cutoff in (-0.25, 0.0, 1.5):
        want = brute_force(lo.tolist(), hi.tolist(), cutoff)
        assert as_list(near_pairs(lo, hi, cutoff)) == want


def test_tiny_chunks_split_one_box_candidates(monkeypatch):
    """A box whose candidates straddle several chunks keeps every pair."""
    monkeypatch.setattr(rect_module, "_PAIR_CHUNK", 3)
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        lo = rng.integers(0, 8, (n, 2)) / 2.0
        hi = lo + rng.integers(0, 5, (n, 2)) / 2.0
        for cutoff in (-0.5, 0.0, 1.0):
            want = brute_force(lo.tolist(), hi.tolist(), cutoff)
            assert as_list(near_pairs(lo, hi, cutoff)) == want


def test_fewer_than_two_boxes():
    for n in (0, 1):
        got = near_pairs(np.zeros((n, 2)), np.ones((n, 2)), 5.0)
        assert got.shape == (0, 2)
    assert near_pairs([], [], 0.0).shape == (0, 2)


def unit_lattice(cols: int, rows: int) -> tuple:
    """``cols`` × ``rows`` unit boxes packed edge to edge, column by column."""
    col, row = np.meshgrid(np.arange(cols), np.arange(rows), indexing="ij")
    lo = np.column_stack([col.ravel(), row.ravel()]).astype(np.float64)
    return lo, lo + 1.0


def packed_layouts(rng) -> list:
    """Shuffled column-packed lattices: plain, with 3x3 "qubit" boxes
    sharing the unit boxes' columns (taller groups), and with duplicates."""
    layouts = [unit_lattice(9, 7)]
    lo, hi = unit_lattice(12, 10)
    keep = ~((lo[:, 0] % 6 < 3) & (lo[:, 1] % 5 < 3) & (lo[:, 1] < 8))
    qubits = np.array([(c, r) for c in (0.0, 6.0) for r in (0.0, 5.0)])
    layouts.append(
        (np.vstack([lo[keep], qubits]), np.vstack([hi[keep], qubits + 3.0]))
    )
    lo, hi = unit_lattice(8, 8)
    twins = rng.choice(len(lo), 12, replace=False)
    layouts.append((np.vstack([lo, lo[twins]]), np.vstack([hi, hi[twins]])))
    lo, hi = unit_lattice(6, 40)  # long columns: wide own-group windows
    layouts.append((lo * [1.0, 0.5], lo * [1.0, 0.5] + [1.0, 0.5]))
    shuffled = []
    for lo, hi in layouts:
        perm = rng.permutation(len(lo))
        shuffled.append((lo[perm], hi[perm]))
    return shuffled


def test_column_packed_lattices():
    rng = np.random.default_rng(5)
    for lo, hi in packed_layouts(rng):
        for cutoff in (-1e-6, -0.5, 0.0, 0.5, 1.0, 2.0):
            want = brute_force(lo.tolist(), hi.tolist(), cutoff)
            assert as_list(near_pairs(lo, hi, cutoff)) == want


def test_column_packed_lattices_in_tiny_chunks(monkeypatch):
    """Queries and candidates split three at a time; duplicates of one box
    land on both sides of many chunk boundaries."""
    monkeypatch.setattr(rect_module, "_PAIR_CHUNK", 3)
    rng = np.random.default_rng(9)
    for lo, hi in packed_layouts(rng)[:3]:
        lo = np.vstack([lo, lo[:1], lo[:1], lo[7:8]])
        hi = np.vstack([hi, hi[:1], hi[:1], hi[7:8]])
        for cutoff in (-1e-6, 0.0, 1.0):
            want = brute_force(lo.tolist(), hi.tolist(), cutoff)
            assert as_list(near_pairs(lo, hi, cutoff)) == want
