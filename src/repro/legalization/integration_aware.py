"""Integration-aware resonator legalization (paper Algorithm 1, Fig. 6).

The quantum twist on Tetris: blocks are legalized resonator by resonator,
and after the first block of a resonator lands, subsequent blocks may only
go to *adjacent available* bins (``Baa``) — free sites 4-adjacent to the
blocks already placed for this resonator.  The grown region therefore
stays connected, keeping the resonator unified (|Ce| = 1) whenever space
permits, which is exactly the cluster-count objective (Eq. 3).

When ``Baa`` runs dry (a congested pocket), the block falls back to the
globally nearest free bin, starting a new cluster — the residual
non-unified resonators the detailed placer later repairs.

The scan runs on flat site arithmetic: a block's target site is
``SiteGrid.site_of``'s ``int(x // lb)`` (clamped) on its coordinates,
occupancy is read straight from ``BinGrid.kind_flat`` at
``col * rows + row`` through a ``memoryview`` (Python ints, no NumPy
scalars), and the four neighbours of a placed site and the attachment
ring around a qubit pad are tested inline.  Every write still goes
through :meth:`BinGrid.occupy`, so the flat arrays stay the only
occupancy state.  ``Baa`` picks the site minimizing ``(dist², row,
col)``; the key is unique per site, so the choice does not depend on the
set's iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.legalization.bins import KIND_FREE, BinGrid, LegalizationInfeasible


@dataclass
class IntegrationLegalizationResult:
    """Outcome of Algorithm 1 over all resonators."""

    placed: dict
    fallback_blocks: int
    total_displacement: float


def _attachment_ring(kind, grid, rect) -> list:
    """Free sites 4-adjacent to, but outside, the sites ``rect`` covers.

    The covered sites form one rectangle of sites (clipped to the grid,
    possibly empty), so its 4-neighbours outside it are the in-grid column
    left and right of it and the row below and above it.
    """
    lo_col, hi_col, lo_row, hi_row = grid.covered_span(rect)
    if lo_col > hi_col or lo_row > hi_row:
        return []
    rows = grid.rows
    ring = []
    if lo_col > 0:
        ring += [(lo_col - 1, r) for r in range(lo_row, hi_row + 1)]
    if hi_col < grid.cols - 1:
        ring += [(hi_col + 1, r) for r in range(lo_row, hi_row + 1)]
    if lo_row > 0:
        ring += [(c, lo_row - 1) for c in range(lo_col, hi_col + 1)]
    if hi_row < rows - 1:
        ring += [(c, hi_row + 1) for c in range(lo_col, hi_col + 1)]
    return [(c, r) for c, r in ring if kind[c * rows + r] == KIND_FREE]


def integration_aware_legalize(
    resonators: list,
    bins: BinGrid,
    netlist=None,
) -> IntegrationLegalizationResult:
    """Legalize every resonator's blocks contiguously (Algorithm 1).

    ``resonators`` are processed in the given order; ``bins`` must already
    have the legalized qubits blocked out (line 2 of Algorithm 1).  When
    ``netlist`` is given, the first block of each resonator seeds at a
    free site *adjacent to its endpoint qubit* (as in the paper's Fig. 6c)
    so the grown region attaches to the qubit pad and the exposed
    connection trace stays short; without it, the first block simply takes
    the globally nearest free bin.

    Block positions are written back; the result records the placement
    map, how many blocks needed the global fallback (new cluster seeds),
    and the total Manhattan displacement in layout units.  Raises
    :class:`~repro.legalization.bins.LegalizationInfeasible` when no free
    site is left.
    """
    grid = bins.grid
    rows, lb = grid.rows, grid.lb
    last_col, last_row = grid.cols - 1, rows - 1
    placed = {}
    fallbacks = 0
    displacement = 0.0

    with memoryview(bins.kind_flat) as kind:
        for resonator in resonators:
            baa = set()  # Baa: free sites 4-adjacent to this resonator's blocks
            attach = None
            if netlist is not None:
                qubit = netlist.qubit(resonator.qi)
                attach = _attachment_ring(kind, grid, qubit.rect)
            for block in resonator.blocks:
                x, y = block.x, block.y
                tc = min(max(int(x // lb), 0), last_col)
                tr = min(max(int(y // lb), 0), last_row)
                if baa:
                    _, row, col = min(
                        [((c - tc) ** 2 + (r - tr) ** 2, r, c) for c, r in baa]
                    )
                elif block.ordinal == 0 and attach:
                    _, row, col = min(
                        [((c - tc) ** 2 + (r - tr) ** 2, r, c) for c, r in attach]
                    )
                else:
                    site = bins.nearest_free(tc, tr)
                    if site is None:
                        raise LegalizationInfeasible(
                            "integration", "ran out of free sites"
                        )
                    col, row = site
                    if block.ordinal > 0:
                        fallbacks += 1
                bins.occupy(col, row, block.node_id)
                baa.discard((col, row))
                cx = (col + 0.5) * lb
                cy = (row + 0.5) * lb
                displacement += abs(cx - x) + abs(cy - y)
                block.move_to(cx, cy)
                placed[block.name] = (col, row)
                # Baa update f(Baa, Ba, p(s)): add the new block's free
                # neighbours.  The placed site, the only one whose
                # occupancy changed, was discarded above, so every member
                # stays free.
                flat = col * rows + row
                if col > 0 and kind[flat - rows] == KIND_FREE:
                    baa.add((col - 1, row))
                if col < last_col and kind[flat + rows] == KIND_FREE:
                    baa.add((col + 1, row))
                if row > 0 and kind[flat - 1] == KIND_FREE:
                    baa.add((col, row - 1))
                if row < last_row and kind[flat + 1] == KIND_FREE:
                    baa.add((col, row + 1))

    return IntegrationLegalizationResult(
        placed=placed,
        fallback_blocks=fallbacks,
        total_displacement=displacement,
    )
