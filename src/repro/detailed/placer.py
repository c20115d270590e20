"""The qGDP detailed placer (Algorithm 2, Fig. 7).

For each flagged resonator the placer rips its blocks out of the bin grid,
maze-routes a fresh corridor from qubit_i to qubit_j inside the processing
window (avoiding foreign blocks, steered away from near-resonant
components by an extra cost), lays the blocks contiguously along that
corridor, and grows any remainder with the Algorithm-1 adjacency rule.
The new window layout is kept only when neither the window's cluster count
nor its hotspot score regresses — otherwise everything is restored
(Algorithm 2 lines 7-9).

The accept/revert metric evaluations dominated the runtime of a naive
implementation: every window check rebuilt every resonator's MST trace and
re-scored the whole netlist.  This placer is *incremental* instead — it
keeps per-resonator caches (traces, sampled trace sites, trace bboxes,
cluster counts, crossing counts, pairwise intersection counts and the
full hotspot score map) that are only invalidated for the ripped-up resonator and reinstated
wholesale on revert, which is exact because every other resonator's blocks
are untouched.  One :class:`~repro.routing.maze.MazeRouter` (and its
Dijkstra scratch arrays) is shared across all flagged resonators, and the
frequency steering cost is precomputed as a vectorized overlay instead of
a per-site callback.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.config import QGDPConfig
from repro.detailed.windows import build_window, find_violations
from repro.frequency.hotspots import qubit_hotspot_pairs, resonator_hotspots
from repro.legalization.bins import KIND_BLOCK, KIND_QUBIT, BinGrid
from repro.netlist.clusters import block_clusters, cluster_count_map
from repro.netlist.netlist import QuantumNetlist
from repro.netlist.traces import resonator_trace
from repro.routing.crossings import (
    build_traces,
    count_crossings,
    resonator_crossings,
    trace_bbox,
    trace_site_indices,
)
from repro.routing.maze import MazeRouter


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
    def run(self, netlist: QuantumNetlist, bins: BinGrid) -> DetailedPlacementResult:
        """Run Algorithm 2 over the whole layout in place."""
        cfg = self.config
        lb = cfg.lb

        # Metric caches, valid for the *current* block positions.
        traces = build_traces(netlist, lb)
        samples = {
            key: trace_site_indices(trace, bins)
            for key, trace in traces.items()
        }
        bboxes = {key: trace_bbox(trace) for key, trace in traces.items()}
        # Qubit macros never move during detailed placement, so their
        # pairwise hotspot terms are computed once for the whole run.
        qubit_pairs = qubit_hotspot_pairs(netlist, cfg.reach, cfg.delta_c)
        hotspot_scores = resonator_hotspots(
            netlist,
            cfg.reach,
            cfg.delta_c,
            lb=lb,
            traces=traces,
            qubit_pairs=qubit_pairs,
        )
        crossing_report = count_crossings(
            netlist, bins, traces=traces, samples=samples, bboxes=bboxes
        )
        crossing_counts = dict(crossing_report.per_resonator)
        pair_counts = dict(crossing_report.pair_crossings)
        cluster_counts = cluster_count_map(netlist.resonators, lb)

        flagged = find_violations(
            netlist,
            lb,
            cfg.reach,
            cfg.delta_c,
            bins=bins,
            hotspot_scores=hotspot_scores,
            crossing_scores=crossing_counts,
        )
        clusters_before_total = sum(
            cluster_counts[r.key] for r in netlist.resonators
        )
        attempted = accepted = reverted = 0
        router = MazeRouter(bins, crossing_cost=25.0)

        def window_crossings(keys) -> int:
            total = 0
            for k in keys:
                if k not in crossing_counts:
                    crossing_counts[k] = resonator_crossings(
                        netlist,
                        netlist.resonator(*k),
                        bins,
                        traces=traces,
                        samples=samples.get(k),
                        pair_counts=pair_counts,
                        bboxes=bboxes,
                    )
                total += crossing_counts[k]
            return total

        def drop_pairs_involving(key) -> dict:
            removed = {
                pair: count
                for pair, count in pair_counts.items()
                if key in pair
            }
            for pair in removed:
                del pair_counts[pair]
            return removed

        for key in flagged:
            resonator = netlist.resonator(*key)
            window = build_window(netlist, bins.grid, key)
            keys = window.resonator_keys
            clusters_before = sum(cluster_counts[k] for k in keys)
            hotspots_before = sum(hotspot_scores.get(k, 0.0) for k in keys)
            crossings_before = window_crossings(keys)
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

            # The target's geometry changed; every other resonator's
            # blocks (hence trace, samples and cluster count) did not.
            old_trace = traces[key]
            old_samples = samples[key]
            old_bbox = bboxes[key]
            old_pairs = drop_pairs_involving(key)
            target_cluster_blocks = block_clusters(resonator, lb)
            traces[key] = resonator_trace(
                netlist, resonator, lb, clusters=target_cluster_blocks
            )
            samples[key] = trace_site_indices(traces[key], bins)
            bboxes[key] = trace_bbox(traces[key])
            target_clusters = len(target_cluster_blocks)

            clusters_after = sum(
                target_clusters if k == key else cluster_counts[k]
                for k in keys
            )
            after_scores = resonator_hotspots(
                netlist,
                cfg.reach,
                cfg.delta_c,
                lb=lb,
                traces=traces,
                qubit_pairs=qubit_pairs,
            )
            hotspots_after = sum(after_scores.get(k, 0.0) for k in keys)
            after_crossings = {
                k: resonator_crossings(
                    netlist,
                    netlist.resonator(*k),
                    bins,
                    traces=traces,
                    samples=samples.get(k),
                    pair_counts=pair_counts,
                    bboxes=bboxes,
                )
                for k in keys
            }
            crossings_after = sum(after_crossings.values())

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
                hotspot_scores = after_scores
                cluster_counts[key] = target_clusters
                # The target's occupancy moved, which can change any
                # resonator's bridged count — keep only the freshly
                # evaluated window keys and recompute the rest on demand.
                crossing_counts = dict(after_crossings)
            else:
                for block in resonator.blocks:
                    bins.release(*bins.grid.site_of(block.center))
                self._restore(bins, resonator, old_sites)
                reverted += 1
                # Positions are back to the pre-attempt state: reinstate
                # the caches touched while evaluating the attempt.
                traces[key] = old_trace
                samples[key] = old_samples
                bboxes[key] = old_bbox
                drop_pairs_involving(key)
                pair_counts.update(old_pairs)

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
