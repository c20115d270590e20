"""Violation detection and processing-window construction (Fig. 7a-b).

A *violation* is a resonator with multiple clusters (``E_c`` of
Algorithm 2) or a positive hotspot score (``E_h``).  Its processing window
is the minimum site-rect bounding the resonator's blocks, its endpoint
qubits, and every *adjacent* resonator (one with blocks inside that
bounding box), inflated by a small halo so the re-placer has room to move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frequency.hotspots import resonator_hotspots
from repro.geometry import SiteGrid
from repro.netlist.clusters import cluster_count_map
from repro.netlist.netlist import QuantumNetlist
from repro.routing.crossings import count_crossings


@dataclass
class Window:
    """A processing window: site bounds plus the resonators inside it."""

    target_key: tuple
    bounds: tuple  # (lo_col, lo_row, hi_col, hi_row), inclusive
    resonator_keys: list = field(default_factory=list)

    def contains_site(self, site: tuple) -> bool:
        lo_col, lo_row, hi_col, hi_row = self.bounds
        return lo_col <= site[0] <= hi_col and lo_row <= site[1] <= hi_row


def find_violations(
    netlist: QuantumNetlist,
    lb: float,
    reach: float,
    delta_c: float,
    bins=None,
    hotspot_scores: dict = None,
    crossing_scores: dict = None,
    cluster_counts: dict = None,
) -> list:
    """Resonator keys needing detailed placement: ``E_c ∪ E_h ∪ E_x``.

    ``E_c`` — non-unified resonators; ``E_h`` — resonators with hotspot
    exposure; ``E_x`` — resonators whose connection trace crosses others
    (needs ``bins`` for occupancy; skipped when absent).  Ordered
    worst-first (cluster count, hotspot score, crossings) so the placer
    attacks the most fragmented resonators before the marginal ones.

    ``hotspot_scores`` / ``crossing_scores`` / ``cluster_counts`` let a
    caller that already scored the layout (the detailed placer, which
    keeps these maps as its current scores) pass the per-resonator maps
    instead of recomputing them.
    """
    if hotspot_scores is None:
        hotspot_scores = resonator_hotspots(netlist, reach, delta_c, lb=lb)
    if crossing_scores is None:
        crossing_scores = {}
        if bins is not None:
            crossing_scores = count_crossings(netlist, bins).per_resonator
    if cluster_counts is None:
        cluster_counts = cluster_count_map(netlist.resonators, lb)
    flagged = []
    for resonator in netlist.resonators:
        clusters = cluster_counts[resonator.key]
        score = hotspot_scores.get(resonator.key, 0.0)
        crossings = crossing_scores.get(resonator.key, 0)
        if clusters > 1 or score > 0.0 or crossings > 0:
            flagged.append((clusters, score, crossings, resonator.key))
    flagged.sort(key=lambda t: (-t[0], -t[1], -t[2], t[3]))
    return [key for _, _, _, key in flagged]


def build_window(
    netlist: QuantumNetlist,
    grid: SiteGrid,
    target_key: tuple,
    halo: int = 2,
) -> Window:
    """Window around ``target_key``: its blocks + qubits + adjacent resonators."""
    target = netlist.resonator(*target_key)
    qa = netlist.qubit(target.qi)
    qb = netlist.qubit(target.qj)
    sites = [grid.site_of(b.center) for b in target.blocks]
    for rect in (qa.rect, qb.rect):
        sites.extend(grid.sites_covered(rect))
    lo_col = min(s[0] for s in sites) - halo
    hi_col = max(s[0] for s in sites) + halo
    lo_row = min(s[1] for s in sites) - halo
    hi_row = max(s[1] for s in sites) + halo

    # Adjacent resonators: any with at least one block in the core bounds.
    members = [target_key]
    for resonator in netlist.resonators:
        if resonator.key == target_key:
            continue
        for block in resonator.blocks:
            col, row = grid.site_of(block.center)
            if lo_col <= col <= hi_col and lo_row <= row <= hi_row:
                members.append(resonator.key)
                break

    bounds = (
        max(0, lo_col),
        max(0, lo_row),
        min(grid.cols - 1, hi_col),
        min(grid.rows - 1, hi_row),
    )
    return Window(target_key=target_key, bounds=bounds, resonator_keys=members)
