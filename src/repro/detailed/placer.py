"""The qGDP detailed placer (Algorithm 2, Fig. 7).

For each flagged resonator the placer rips its blocks out of the bin grid,
maze-routes a fresh corridor from qubit_i to qubit_j inside the processing
window (avoiding foreign blocks, steered away from near-resonant
components by an extra cost), lays the blocks contiguously along that
corridor, and grows any remainder with the Algorithm-1 adjacency rule.
The new window layout is kept only when none of the window's cluster
count, hotspot score and crossing count regresses and one of them
improves — otherwise everything is restored (Algorithm 2 lines 7-9).

Every attempt that re-places its target is scored with the same
layout-wide analyses the final report uses — cluster counts,
:func:`~repro.frequency.hotspots.resonator_hotspots` and
:func:`~repro.routing.crossings.count_crossings` — so a window decision
and Table III's ``X`` never disagree.  Across attempts the placer keeps
the cluster map, the MST traces and the current score maps: a rip-up
changes only its target's clusters and trace, an accept makes the
attempt's clusters and scores current, and a revert restores the
target's blocks and trace while the pre-attempt clusters and scores
still hold.  The cluster map, the traces and the starting scores may be
the caller's (:class:`~repro.core.pipeline.QGDPFlow` hands in the ones
its lg analysis built and filled).  The cluster map and the traces are
kept current in place, so after :meth:`DetailedPlacer.run` they describe
the final layout and the caller's next analysis needs no rebuild; the
starting scores are only read.  One
:class:`~repro.routing.maze.MazeRouter` (and its Dijkstra scratch arrays)
is shared across all flagged resonators, and the frequency steering cost
is precomputed as a vectorized overlay instead of a per-site callback.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.config import QGDPConfig
from repro.detailed.windows import build_window, find_violations
from repro.frequency.hotspots import resonator_hotspots
from repro.legalization.bins import KIND_BLOCK, KIND_QUBIT, BinGrid
from repro.netlist.clusters import block_cluster_map, block_clusters
from repro.netlist.netlist import QuantumNetlist
from repro.netlist.traces import build_traces, resonator_trace
from repro.routing.crossings import count_crossings
from repro.routing.maze import MazeRouter

# perfbench/tracing.py's SITES patch this name here and its install()
# fails on a missing one, so it stays importable from this module.
from repro.frequency.hotspots import qubit_hotspot_pairs  # noqa: F401


@dataclass
class DetailedPlacementResult:
    """Summary of one detailed-placement run."""

    flagged: int
    attempted: int
    accepted: int
    reverted: int
    clusters_before: int
    clusters_after: int


class DetailedPlacer:
    """Window-based rip-up-and-re-place detail placer."""

    def __init__(self, config: QGDPConfig = None) -> None:
        self.config = config or QGDPConfig()

    # -- helpers -----------------------------------------------------------
    def _adjacent_sites(self, grid, rect) -> set:
        covered = set(grid.sites_covered(rect))
        out = set()
        for col, row in covered:
            for site in grid.neighbors4(col, row):
                if site not in covered:
                    out.add(site)
        return out

    def _frequency_overlay(self, netlist, bins, freq: float) -> np.ndarray:
        """Vectorized extra per-site cost near close-frequency components.

        Equivalent to summing ``2 * tau(freq, neighbour frequency)`` over a
        site's occupied in-grid 4-neighbours, with the neighbour terms
        accumulated in the same (west, east, south, north) order as the
        scalar cost model so route costs stay bit-identical.
        """
        grid = bins.grid
        delta_c = self.config.delta_c
        kind = bins.kind_flat
        owner_idx = bins.owner_idx_flat

        freq_by_owner = np.empty(len(bins.owners), dtype=np.float64)
        for i, owner in enumerate(bins.owners):
            if owner[0] == "q":
                freq_by_owner[i] = netlist.qubit(owner[1]).frequency
            elif owner[0] == "b":
                freq_by_owner[i] = netlist.resonator(*owner[1]).frequency
            else:
                freq_by_owner[i] = np.inf  # unknown owner: zero tau weight

        site_freq = np.zeros(grid.num_sites, dtype=np.float64)
        occupied = (kind == KIND_QUBIT) | (kind == KIND_BLOCK)
        site_freq[occupied] = freq_by_owner[owner_idx[occupied]]
        detuning = np.abs(freq - site_freq)
        t = np.where(detuning >= delta_c, 0.0, 1.0 - detuning / delta_c)
        t[~occupied] = 0.0

        t2d = t.reshape(grid.cols, grid.rows)
        pen = np.zeros_like(t2d)
        pen[1:, :] += 2.0 * t2d[:-1, :]
        pen[:-1, :] += 2.0 * t2d[1:, :]
        pen[:, 1:] += 2.0 * t2d[:, :-1]
        pen[:, :-1] += 2.0 * t2d[:, 1:]
        return pen.reshape(-1)

    def _replace_resonator(
        self, netlist, bins, resonator, window, router
    ) -> bool:
        """Rip up and re-place one resonator inside its window.

        Returns True when a complete re-placement was committed (caller
        still decides accept/revert on metrics); False when no feasible
        placement existed (positions untouched).
        """
        grid = bins.grid
        old_sites = {}
        for block in resonator.blocks:
            site = grid.site_of(block.center)
            old_sites[block.ordinal] = (site, (block.x, block.y))
            bins.release(*site)

        qa = netlist.qubit(resonator.qi)
        qb = netlist.qubit(resonator.qj)
        route = router.route(
            sources=self._adjacent_sites(grid, qa.rect),
            targets=self._adjacent_sites(grid, qb.rect),
            own_key=resonator.key,
            window=window.bounds,
            extra_cost=self._frequency_overlay(
                netlist, bins, resonator.frequency
            ),
        )

        ordered_sites = deque()
        if route is not None:
            ordered_sites.extend(s for s in route.path if bins.is_free(*s))

        placed = []
        # The frontier only ever holds free sites: the sole occupancy
        # changes during this loop are our own placements, each discarded
        # from the frontier as it lands — no extra pruning pass needed.
        frontier = set()
        for block in resonator.blocks:
            site = None
            while ordered_sites:
                candidate = ordered_sites.popleft()
                if bins.is_free(*candidate):
                    site = candidate
                    break
            if site is None and frontier:
                target = grid.site_of(block.center)
                site = min(
                    frontier,
                    key=lambda s: (
                        (s[0] - target[0]) ** 2 + (s[1] - target[1]) ** 2,
                        s[1],
                        s[0],
                    ),
                )
            if site is None:
                # No corridor and no frontier: give up, restore below.
                break
            bins.occupy(site[0], site[1], block.node_id)
            frontier.discard(site)
            center = grid.site_center(*site)
            block.move_to(center.x, center.y)
            placed.append((block, site))
            for neighbor in bins.free_neighbors(*site):
                if window.contains_site(neighbor):
                    frontier.add(neighbor)

        if len(placed) < resonator.num_blocks:
            for block, site in placed:
                bins.release(*site)
            self._restore(bins, resonator, old_sites)
            return False
        return True

    @staticmethod
    def _restore(bins, resonator, old_sites) -> None:
        for block in resonator.blocks:
            site, (x, y) = old_sites[block.ordinal]
            bins.occupy(site[0], site[1], block.node_id)
            block.move_to(x, y)

    # -- main entry ----------------------------------------------------------
    def run(
        self,
        netlist: QuantumNetlist,
        bins: BinGrid,
        traces: dict = None,
        clusters: dict = None,
        scores: dict = None,
    ) -> DetailedPlacementResult:
        """Run Algorithm 2 over the whole layout in place.

        ``clusters`` and ``traces`` optionally supply the layout's cluster
        map and MST traces at ``config.lb`` (as
        :func:`~repro.netlist.clusters.block_cluster_map` and
        :func:`~repro.netlist.traces.build_traces` return); ``scores``
        optionally supplies its per-resonator ``"hotspots"`` and
        ``"crossings"`` maps (as :func:`~repro.metrics.report.analyze_layout`
        fills them), so the run starts without scoring the layout.  Handed
        ``clusters`` and ``traces`` are updated in place to the final
        layout; ``scores`` is only read.
        """
        cfg = self.config
        lb = cfg.lb

        # Clusters and MST traces of the current block positions; an
        # attempt changes only its target's.
        if clusters is None:
            clusters = block_cluster_map(netlist.resonators, lb)
        if traces is None:
            traces = build_traces(netlist, lb, clusters)

        def score() -> tuple:
            """Per-resonator ``(hotspot, crossing)`` maps of the layout."""
            hotspots = resonator_hotspots(
                netlist, cfg.reach, cfg.delta_c, lb=lb, traces=traces
            )
            crossings = count_crossings(netlist, bins, traces=traces)
            return hotspots, crossings.per_resonator

        if scores is None:
            hotspot_scores, crossing_counts = score()
        else:
            hotspot_scores, crossing_counts = scores["hotspots"], scores["crossings"]
        cluster_counts = {key: len(found) for key, found in clusters.items()}

        flagged = find_violations(
            netlist,
            lb,
            cfg.reach,
            cfg.delta_c,
            bins=bins,
            hotspot_scores=hotspot_scores,
            crossing_scores=crossing_counts,
            cluster_counts=cluster_counts,
        )
        clusters_before_total = sum(
            cluster_counts[r.key] for r in netlist.resonators
        )
        attempted = accepted = reverted = 0
        router = MazeRouter(bins, crossing_cost=25.0)

        for key in flagged:
            resonator = netlist.resonator(*key)
            window = build_window(netlist, bins.grid, key)
            keys = window.resonator_keys
            old_sites = {
                b.ordinal: (bins.grid.site_of(b.center), (b.x, b.y))
                for b in resonator.blocks
            }

            attempted += 1
            if not self._replace_resonator(
                netlist, bins, resonator, window, router
            ):
                reverted += 1
                continue

            # Only the target's blocks moved: rebuild its trace and
            # cluster count, then re-score the whole layout once.
            old_trace = traces[key]
            target_cluster_blocks = block_clusters(resonator, lb)
            traces[key] = resonator_trace(
                netlist, resonator, lb, clusters=target_cluster_blocks
            )
            target_clusters = len(target_cluster_blocks)
            after_hotspots, after_crossings = score()

            clusters_before = sum(cluster_counts[k] for k in keys)
            clusters_after = sum(
                target_clusters if k == key else cluster_counts[k]
                for k in keys
            )
            hotspots_before = sum(hotspot_scores.get(k, 0.0) for k in keys)
            hotspots_after = sum(after_hotspots.get(k, 0.0) for k in keys)
            crossings_before = sum(crossing_counts[k] for k in keys)
            crossings_after = sum(after_crossings[k] for k in keys)

            improved = (
                clusters_after <= clusters_before
                and hotspots_after <= hotspots_before + 1e-9
                and crossings_after <= crossings_before
                and (
                    clusters_after < clusters_before
                    or hotspots_after < hotspots_before - 1e-9
                    or crossings_after < crossings_before
                )
            )
            if improved:
                accepted += 1
                clusters[key] = target_cluster_blocks
                cluster_counts[key] = target_clusters
                hotspot_scores = after_hotspots
                crossing_counts = after_crossings
            else:
                for block in resonator.blocks:
                    bins.release(*bins.grid.site_of(block.center))
                self._restore(bins, resonator, old_sites)
                reverted += 1
                # Positions are back to the pre-attempt state, so the
                # current score maps still hold; only the trace reverts.
                traces[key] = old_trace

        clusters_after_total = sum(
            cluster_counts[r.key] for r in netlist.resonators
        )
        return DetailedPlacementResult(
            flagged=len(flagged),
            attempted=attempted,
            accepted=accepted,
            reverted=reverted,
            clusters_before=clusters_before_total,
            clusters_after=clusters_after_total,
        )
