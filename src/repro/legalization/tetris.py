"""Tetris-style standard-cell legalization [27] (classical baseline).

The classic Tetris legalizer scans cells in increasing x and packs each
into a row left-to-right: within a row, a cell may never sit left of the
row's *frontier* (the site after the rightmost cell already packed
there), so congested regions cascade cells rightward — the GP-destroying
behaviour the paper's Fig. 1 red line illustrates.  It is fast but
*integration-blind*: blocks of one resonator are placed independently and
scatter into many clusters wherever rows are contested.

Each frontier query ("first free column at or after ``c`` in this row")
is answered from a per-row next-free index built once per call: ``nxt[c]``
is ``c`` for a free site and points rightward past an occupied one, with
a sentinel at ``cols``, and a lookup follows the pointers with path
halving.  Tetris is the only writer to the occupancy while it runs, so
marking each committed site keeps the index exact.
"""

from __future__ import annotations

from repro.legalization.bins import BinGrid, LegalizationInfeasible


def _first_free(nxt: list, col: int) -> int:
    """Smallest free column ``>= col`` of one row's index (``cols`` when
    none is left), halving the path it walks."""
    while nxt[col] != col:
        nxt[col] = nxt[nxt[col]]
        col = nxt[col]
    return col


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
    cols, rows, lb = grid.cols, grid.rows, grid.lb
    order = sorted(blocks, key=lambda b: (b.x, b.y, b.resonator_key, b.ordinal))
    frontier = [0] * rows
    index = []
    for row in range(rows):
        nxt = list(range(1, cols + 1)) + [cols]
        for col in bins.free_cols_in_row(row).tolist():
            nxt[col] = col
        index.append(nxt)
    placed = {}
    for block in order:
        target_col = min(max(int(block.x // lb), 0), cols - 1)
        target_row = min(max(int(block.y // lb), 0), rows - 1)
        best = None  # (cost, col, row)
        for dist in range(rows):
            if best is not None and dist > best[0]:
                break
            pair = (target_row - dist, target_row + dist) if dist else (target_row,)
            for row in pair:
                if not (0 <= row < rows):
                    continue
                nxt = index[row]
                col = _first_free(nxt, max(frontier[row], target_col))
                if col == cols:
                    # Frontier exhausted: allow restarting from the left
                    # edge (the classic wrap when a row's tail is full).
                    col = _first_free(nxt, 0)
                    if col == cols:
                        continue
                cost = abs(col - target_col) + dist
                if best is None or cost < best[0]:
                    best = (cost, col, row)
        if best is None:
            raise LegalizationInfeasible("tetris", "ran out of free sites")
        _, col, row = best
        bins.occupy(col, row, block.node_id)
        index[row][col] = col + 1
        frontier[row] = col + 1
        block.move_to((col + 0.5) * lb, (row + 0.5) * lb)
        placed[block.name] = (col, row)
    return placed
