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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.legalization.bins import BinGrid


@dataclass
class IntegrationLegalizationResult:
    """Outcome of Algorithm 1 over all resonators."""

    placed: dict
    fallback_blocks: int
    total_displacement: float


def _site_distance2(site: tuple, target: tuple) -> float:
    dc = site[0] - target[0]
    dr = site[1] - target[1]
    return float(dc * dc + dr * dr)


def _attachment_sites(bins: BinGrid, rect) -> list:
    """Free sites 4-adjacent to a qubit footprint (attachment candidates)."""
    grid = bins.grid
    covered = set(grid.sites_covered(rect))
    candidates = set()
    for col, row in covered:
        for site in grid.neighbors4(col, row):
            if site not in covered and bins.is_free(*site):
                candidates.add(site)
    return sorted(candidates)


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
    and the total Manhattan displacement in layout units.
    """
    grid = bins.grid
    placed = {}
    fallbacks = 0
    displacement = 0.0

    for resonator in resonators:
        adjacent_available = set()  # Baa
        attach = None
        if netlist is not None:
            qubit = netlist.qubit(resonator.qi)
            attach = _attachment_sites(bins, qubit.rect)
        for block in resonator.blocks:
            target = grid.site_of(block.center)
            if adjacent_available:
                site = min(
                    adjacent_available,
                    key=lambda s: (_site_distance2(s, target), s[1], s[0]),
                )
            elif block.ordinal == 0 and attach:
                site = min(
                    attach,
                    key=lambda s: (_site_distance2(s, target), s[1], s[0]),
                )
            else:
                site = bins.nearest_free(*target)
                if site is None:
                    raise RuntimeError(
                        "integration-aware legalization ran out of free sites"
                    )
                if block.ordinal > 0:
                    fallbacks += 1
            bins.occupy(site[0], site[1], block.node_id)
            adjacent_available.discard(site)
            center = grid.site_center(*site)
            displacement += abs(center.x - block.x) + abs(center.y - block.y)
            block.move_to(center.x, center.y)
            placed[block.name] = site
            # Baa update f(Baa, Ba, p(s)): add the new block's free
            # neighbours.  The placed site, the only one whose occupancy
            # changed, was discarded above, so every member stays free.
            adjacent_available.update(bins.free_neighbors(*site))

    return IntegrationLegalizationResult(
        placed=placed,
        fallback_blocks=fallbacks,
        total_displacement=displacement,
    )
