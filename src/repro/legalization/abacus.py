"""Abacus standard-cell legalization [29] (classical baseline).

Abacus processes cells in increasing x and inserts each into the row
minimizing quadratic displacement; within a row, cells are organized into
*clusters* whose optimal position is the mean of member targets, merged
whenever neighbouring clusters would overlap (the classic PlaceRow
recurrence).  Obstacles (qubit macros) split each row into independent
segments.

Each segment keeps its running displacement cost after every cluster,
so a trial insertion re-scores only the cluster the new cell merges
into: PlaceRow's leftward merges are simulated on ``(n, adj_sum)``
alone, and the cost is the stored prefix before the merge point plus
the merged cluster's cells.  The prefix is accumulated cell by cell in
left-to-right order, so every cost is the float a full left-to-right
sum over the segment gives.  A trial that merges nothing is the stored
total plus the new cell's own cost, with no walk, and the winning
trial's merge is what the insertion applies, so no walk runs twice.

Most segments are never priced.  A trial into segment ``[lo, hi]`` with
raw target ``t`` raises the segment's cost by at least ``gap²``, where
``gap = max(lo - t, t - hi, 0)``: the new cell lands on a column in
``[lo, hi]``, and every old cluster it absorbs keeps its cells contiguous
inside the segment, where its old start was already the clamped optimum
of its own convex cost, so merging never lowers that cluster's cost.  A
segment whose ``y_cost + gap²`` exceeds the best delta so far by more
than 1.0 site² therefore cannot win, and is skipped; the best delta only
falls, so once a segment right of ``t`` is skipped, every later segment
of its row is too.  The margin is many orders of magnitude above the
float error of the running sums (about ``n·ε·cost``) on any grid this
code builds, so every skipped segment would have lost the strict ``<``
comparison anyway: rows, segments and ties are visited and broken
exactly as a full scan does.

Like Tetris, Abacus is integration-blind: it optimizes displacement per
cell and happily splits a resonator's blocks across rows and segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.legalization.bins import BinGrid, LegalizationInfeasible


@dataclass
class _Cluster:
    """A maximal run of touching unit cells within one segment.

    ``cells`` holds the ``n`` pairs ``(block, raw_target)`` in
    left-to-right order; the cell at list index ``k`` sits at
    ``start + k``.  ``adj_sum`` is ``Σ (raw_target_k - k)``, so the
    mean-optimal start is ``adj_sum / n`` and ``start`` is that mean
    clamped so the cluster fits its segment.
    """

    cells: list
    n: int
    adj_sum: float
    start: float


@dataclass
class _Segment:
    """A maximal free interval of one row: columns ``lo .. hi`` inclusive.

    ``costs[i]`` is the quadratic x-displacement of every cell in
    ``clusters[: i + 1]``, summed cell by cell from 0.0 in left-to-right
    order; ``used`` counts the cells.
    """

    lo: int
    hi: int
    clusters: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    used: int = 0

    @property
    def total_cost(self) -> float:
        """Quadratic x-displacement of every cell currently in the segment."""
        return self.costs[-1] if self.costs else 0.0

    def _merge(self, raw_target: float) -> tuple:
        """PlaceRow's leftward merges of a new cell, on ``(n, adj_sum)``.

        The new cell absorbs ``clusters[first:]`` into one cluster of
        ``n`` cells whose start is ``adj_sum / n`` clamped to the
        segment.  Returns ``(first, n, adj_sum, start, cost)``, where
        ``cost`` is the segment's total cost after the insertion.
        """
        seg_lo, seg_hi = float(self.lo), float(self.hi + 1)
        n, adj_sum = 1, raw_target
        start = min(max(adj_sum / n, seg_lo), seg_hi - n)
        first = len(self.clusters)
        while first:
            prev = self.clusters[first - 1]
            if prev.start + prev.n <= start + 1e-9:
                break
            adj_sum = prev.adj_sum + adj_sum - n * prev.n
            n += prev.n
            start = min(max(adj_sum / n, seg_lo), seg_hi - n)
            first -= 1
        cost = self.costs[first - 1] if first else 0.0
        k = 0
        for cluster in self.clusters[first:]:
            for _block, target in cluster.cells:
                cost += (start + k - target) ** 2
                k += 1
        cost += (start + k - raw_target) ** 2
        return (first, n, adj_sum, start, cost)

    def trial(self, raw_target: float) -> tuple:
        """``_merge``'s ``(first, n, adj_sum, start, cost)`` for ``raw_target``.

        When the new cell merges nothing, the cost is the stored total
        plus the cell's own cost at its clamped target — the floats
        ``_merge`` returns for that case — priced without the merge walk.
        """
        start = min(max(raw_target, float(self.lo)), float(self.hi))
        clusters = self.clusters
        if not clusters or clusters[-1].start + clusters[-1].n <= start + 1e-9:
            cost = self.total_cost + (start - raw_target) ** 2
            return (len(clusters), 1, raw_target, start, cost)
        return self._merge(raw_target)

    def insert(self, block, raw_target: float, merged: tuple) -> None:
        """PlaceRow append of the cell :meth:`trial` priced as ``merged``."""
        first, n, adj_sum, start, cost = merged
        cells = [cell for cluster in self.clusters[first:] for cell in cluster.cells]
        cells.append((block, raw_target))
        self.clusters[first:] = [_Cluster(cells, n, adj_sum, start)]
        self.costs[first:] = [cost]
        self.used += 1


def _segments_of_row(bins: BinGrid, row: int) -> list:
    """Maximal runs of free columns in a row."""
    free = bins.free_cols_in_row(row)
    segments = []
    run_start = None
    prev = None
    for col in map(int, free):
        if run_start is None:
            run_start = col
        elif col != prev + 1:
            segments.append(_Segment(run_start, prev))
            run_start = col
        prev = col
    if run_start is not None:
        segments.append(_Segment(run_start, prev))
    return segments


def abacus_legalize(blocks: list, bins: BinGrid) -> dict:
    """Legalize wire blocks with row-cluster Abacus.

    ``bins`` must already have fixed macros blocked out.  Final positions
    are written back to the blocks **and** committed to ``bins``; returns
    block name → (col, row).  Raises
    :class:`~repro.legalization.bins.LegalizationInfeasible` when no
    segment can host a cell.

    Each cluster's start is rounded to a column and clamped to its
    segment, and a segment's clusters are committed left to right with
    none starting before the previous one ends: two touching clusters
    whose starts round to the same column (half-integer starts round to
    even) are laid side by side instead of onto one site.
    """
    grid = bins.grid
    row_segments = [_segments_of_row(bins, r) for r in range(grid.rows)]
    order = sorted(blocks, key=lambda b: (b.x, b.y, b.resonator_key, b.ordinal))

    for block in order:
        # A unit cell at column c has centre (c + 0.5) * lb.
        raw_target = block.x / grid.lb - 0.5
        target_row = min(max(int(block.y // grid.lb), 0), grid.rows - 1)
        best = None  # (delta_cost, row, segment, trial)
        for dist in range(grid.rows):
            if best is not None and float(dist * dist) > best[0]:
                break
            pair = (target_row - dist, target_row + dist) if dist else (target_row,)
            for row in pair:
                if not (0 <= row < grid.rows):
                    continue
                y_cost = float((row - target_row) ** 2)
                for segment in row_segments[row]:
                    lo, hi = segment.lo, segment.hi
                    if segment.used > hi - lo:
                        continue
                    if raw_target < lo:
                        gap = lo - raw_target
                    elif raw_target > hi:
                        gap = raw_target - hi
                    else:
                        gap = 0.0
                    if best is not None and y_cost + gap * gap > best[0] + 1.0:
                        if raw_target < lo:
                            break  # every later segment lies farther right
                        continue
                    merged = segment.trial(raw_target)
                    delta = y_cost + merged[4] - segment.total_cost
                    if best is None or delta < best[0]:
                        best = (delta, row, segment, merged)
        if best is None:
            raise LegalizationInfeasible("abacus", "found no feasible row")
        _, _row, segment, merged = best
        segment.insert(block, raw_target, merged)

    # Commit cluster positions to sites and write back block coordinates.
    placed = {}
    for row_idx, segments in enumerate(row_segments):
        for segment in segments:
            next_col = segment.lo
            for cluster in segment.clusters:
                start_col = int(round(cluster.start))
                start_col = max(
                    segment.lo, min(start_col, segment.hi + 1 - cluster.n)
                )
                start_col = max(start_col, next_col)
                for offset, (block, _t) in enumerate(cluster.cells):
                    col = start_col + offset
                    bins.occupy(col, row_idx, block.node_id)
                    block.move_to((col + 0.5) * grid.lb, (row_idx + 0.5) * grid.lb)
                    placed[block.name] = (col, row_idx)
                next_col = start_col + cluster.n
    return placed
