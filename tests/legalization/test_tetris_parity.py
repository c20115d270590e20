"""Parity: Tetris on a per-row next-free index equals the NumPy-probe original.

The reference below is a verbatim transcription of the original
``tetris.py`` and of the ``BinGrid.first_free_col_at_or_after`` probe it
called once per candidate row (a strided slice, an ``==`` and an
``np.flatnonzero``).  The legalizer now answers those frontier queries
from a next-free index it keeps in step with its own commits, so every
placement must be equal, in order, with the same block positions and the
same final occupancy arrays — also where both run out of sites and raise
part-way.
"""

import copy

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.legalization.engines as engines
from repro.core.pipeline import QGDPFlow
from repro.geometry import SiteGrid
from repro.legalization import BinGrid, LegalizationInfeasible, tetris_legalize
from repro.legalization.bins import KIND_FREE
from repro.netlist import WireBlock
from repro.topologies import PAPER_TOPOLOGIES


# -- verbatim reference ------------------------------------------------------
def first_free_col_at_or_after(bins, row, col):
    """Smallest free column ``>= col`` in ``row``, or None."""
    row_kinds = bins.kind_flat[row :: bins.grid.rows]
    start = max(col, 0)
    offsets = np.flatnonzero(row_kinds[start:] == KIND_FREE)
    if offsets.size == 0:
        return None
    return start + int(offsets[0])


def _frontier_position(bins, row, frontier, target):
    """First free column in ``row`` at or after ``max(frontier, target)``."""
    return first_free_col_at_or_after(bins, row, max(frontier, target))


def reference_tetris_legalize(blocks, bins):
    grid = bins.grid
    order = sorted(blocks, key=lambda b: (b.x, b.y, b.resonator_key, b.ordinal))
    frontier = [0] * grid.rows
    placed = {}
    for block in order:
        target_col, target_row = grid.site_of(block.center)
        best = None  # (cost, col, row)
        for dist in range(grid.rows):
            if best is not None and dist > best[0]:
                break
            for row in sorted({target_row - dist, target_row + dist}):
                if not (0 <= row < grid.rows):
                    continue
                col = _frontier_position(bins, row, frontier[row], target_col)
                if col is None:
                    # Frontier exhausted: allow restarting from the left
                    # edge (the classic wrap when a row's tail is full).
                    col = _frontier_position(bins, row, 0, 0)
                    if col is None:
                        continue
                cost = abs(col - target_col) + abs(row - target_row)
                if best is None or cost < best[0]:
                    best = (cost, col, row)
        if best is None:
            raise LegalizationInfeasible("tetris", "ran out of free sites")
        _, col, row = best
        bins.occupy(col, row, block.node_id)
        frontier[row] = col + 1
        center = grid.site_center(col, row)
        block.move_to(center.x, center.y)
        placed[block.name] = (col, row)
    return placed


# -- comparison --------------------------------------------------------------
def run(legalize, blocks, bins):
    """One legalizer on copies of the inputs: outcome, positions, state."""
    blocks, bins = copy.deepcopy(blocks), copy.deepcopy(bins)
    try:
        outcome = list(legalize(blocks, bins).items())
    except LegalizationInfeasible as exc:
        outcome = str(exc)
    return (
        outcome,
        [(block.x, block.y) for block in blocks],
        bins.kind_flat.tolist(),
        bins.owner_idx_flat.tolist(),
        bins.res_idx_flat.tolist(),
        list(bins.owners),
    )


def assert_parity(blocks, bins):
    expected = run(reference_tetris_legalize, blocks, bins)
    assert run(tetris_legalize, blocks, bins) == expected
    return expected[0]


COLS, ROWS = 12, 5

obstacle_st = st.sets(
    st.tuples(st.integers(0, COLS - 1), st.integers(0, ROWS - 1)), max_size=20
)
x_st = st.one_of(
    st.floats(-3.0, COLS + 3.0, allow_nan=False),  # clamped off either edge
    st.sampled_from([COLS - 0.5, COLS - 1.5, COLS - 2.5]),  # frontiers run out
)
y_st = st.one_of(
    st.floats(-2.0, ROWS + 2.0, allow_nan=False),
    st.sampled_from([1.5, 2.5]),  # contested rows
)
block_st = st.lists(st.tuples(x_st, y_st), min_size=1, max_size=70)


def build(obstacles, positions):
    bins = BinGrid(SiteGrid(COLS, ROWS))
    for k, (col, row) in enumerate(sorted(obstacles)):
        bins.occupy(col, row, ("q", k))
    blocks = [
        WireBlock(resonator_key=(k // 4, k // 4 + 1), ordinal=k % 4, x=x, y=y)
        for k, (x, y) in enumerate(positions)
    ]
    return blocks, bins


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(obstacles=obstacle_st, positions=block_st)
def test_tetris_matches_reference_on_random_rows(obstacles, positions):
    assert_parity(*build(obstacles, positions))


def test_exhausted_frontier_wraps_to_column_zero():
    """Only row 2 is open, from column 1: the first right-edge cell takes
    the row's tail, and every later one restarts from the left edge."""
    walls = {(c, r) for c in range(COLS) for r in range(ROWS) if r != 2}
    blocks, bins = build(walls | {(0, 2)}, [(COLS - 0.5, 2.5)] * (COLS - 1))
    placed = assert_parity(blocks, bins)
    assert [site for _name, site in placed] == [(COLS - 1, 2)] + [
        (col, 2) for col in range(1, COLS - 1)
    ]


def test_full_grid_raises_like_the_reference():
    """More cells than free sites: both give up on the same cell, with
    the same sites already committed."""
    positions = [(x + 0.5, y + 0.5) for x in range(COLS) for y in range(ROWS)]
    blocks, bins = build({(3, 1), (7, 4)}, positions)
    outcome = assert_parity(blocks, bins)
    assert outcome == "tetris legalization infeasible: ran out of free sites"


def test_tetris_matches_reference_on_the_protocol_layouts(monkeypatch):
    """The 12 Tetris calls of the paper protocol: six topologies x
    {tetris, q-tetris}, each from its GP snapshot."""
    outcomes = []

    def both(blocks, bins):  # the engine ignores the placement dict
        outcomes.append(assert_parity(blocks, bins))

    monkeypatch.setattr(engines, "tetris_legalize", both)
    for name in PAPER_TOPOLOGIES:
        flow = QGDPFlow(name)
        flow.place()
        snapshot = flow.netlist.snapshot()
        for engine in ("tetris", "q-tetris"):
            flow.restore(snapshot)
            flow.legalize(engine)
    assert len(outcomes) == 12
    assert all(isinstance(outcome, list) and outcome for outcome in outcomes)
