"""Tetris-style standard-cell legalization [27] (classical baseline).

The classic Tetris legalizer scans cells in increasing x and packs each
into a row left-to-right: within a row, a cell may never sit left of the
row's *frontier* (the site after the rightmost cell already packed
there), so congested regions cascade cells rightward — the GP-destroying
behaviour the paper's Fig. 1 red line illustrates.  It is fast but
*integration-blind*: blocks of one resonator are placed independently and
scatter into many clusters wherever rows are contested.
"""

from __future__ import annotations

from repro.legalization.bins import BinGrid, LegalizationInfeasible


def _frontier_position(bins: BinGrid, row: int, frontier: int, target: int):
    """First free column in ``row`` at or after ``max(frontier, target)``."""
    return bins.first_free_col_at_or_after(row, max(frontier, target))


def tetris_legalize(blocks: list, bins: BinGrid) -> dict:
    """Legalize wire blocks with the frontier-packing Tetris scan.

    ``blocks`` are :class:`~repro.netlist.components.WireBlock` with GP
    positions; ``bins`` already has qubit macros (and anything else fixed)
    blocked out.  Each cell tries rows outward from its target row, takes
    the ``(row, col)`` minimizing Manhattan displacement subject to the
    frontier rule, and advances that row's frontier.  Positions are
    written back to the blocks; returns block name → (col, row).

    Raises :class:`~repro.legalization.bins.LegalizationInfeasible` when
    no row can host a cell.
    """
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
