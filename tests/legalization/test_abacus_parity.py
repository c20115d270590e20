"""Parity: Abacus on running segment costs equals the clone-based original.

The reference below is a verbatim transcription of the original
``abacus.py``: each trial insertion cloned its segment and recomputed
``total_cost`` over every cell before and after.  The legalizer now keeps
each segment's running cost per cluster and simulates a trial's merges
on ``(n, adj_sum)``; its floats are the reference's, so every placement
must be equal, order included, wherever the reference does not raise.
The reference raises ``ValueError`` when two touching clusters' starts
round to one column (see ``test_cell_legalizers.py``); there the new
commit must still give a legal layout.

The legalizer also skips every segment whose displacement lower bound
``gap²`` cannot beat the best delta so far, so the wide-row strategy
below gives each row dozens of short segments and targets on their
edges and on half-integers, and the bound itself is tested directly.
"""

import copy
from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.legalization.engines as engines
from repro.core.pipeline import QGDPFlow
from repro.geometry import SiteGrid
from repro.legalization import BinGrid, abacus_legalize
from repro.legalization.abacus import _Segment as LiveSegment
from repro.netlist import WireBlock
from repro.topologies import PAPER_TOPOLOGIES


# -- verbatim reference ------------------------------------------------------
@dataclass
class _Cluster:
    cells: list = field(default_factory=list)
    adj_sum: float = 0.0

    @property
    def n(self) -> int:
        return len(self.cells)

    def optimal_start(self, seg_lo: float, seg_hi_excl: float) -> float:
        raw = self.adj_sum / self.n
        return min(max(raw, seg_lo), seg_hi_excl - self.n)


@dataclass
class _Segment:
    lo: int
    hi: int
    clusters: list = field(default_factory=list)

    @property
    def capacity(self) -> int:
        return self.hi - self.lo + 1

    @property
    def used(self) -> int:
        return sum(c.n for c in self.clusters)

    def total_cost(self) -> float:
        cost = 0.0
        for cluster in self.clusters:
            start = cluster.optimal_start(float(self.lo), float(self.hi + 1))
            for k, (_block, raw_target) in enumerate(cluster.cells):
                cost += (start + k - raw_target) ** 2
        return cost

    def insert(self, block, raw_target: float) -> None:
        self.clusters.append(_Cluster(cells=[(block, raw_target)], adj_sum=raw_target))
        seg_lo, seg_hi = float(self.lo), float(self.hi + 1)
        while len(self.clusters) >= 2:
            cur = self.clusters[-1]
            prev = self.clusters[-2]
            if prev.optimal_start(seg_lo, seg_hi) + prev.n <= cur.optimal_start(
                seg_lo, seg_hi
            ) + 1e-9:
                break
            merged = _Cluster(
                cells=prev.cells + cur.cells,
                adj_sum=prev.adj_sum + cur.adj_sum - cur.n * prev.n,
            )
            self.clusters[-2:] = [merged]

    def clone(self) -> "_Segment":
        return _Segment(
            self.lo,
            self.hi,
            [_Cluster(list(c.cells), c.adj_sum) for c in self.clusters],
        )


def _segments_of_row(bins, row):
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


def reference_abacus_legalize(blocks, bins):
    grid = bins.grid
    row_segments = [_segments_of_row(bins, r) for r in range(grid.rows)]
    order = sorted(blocks, key=lambda b: (b.x, b.y, b.resonator_key, b.ordinal))

    for block in order:
        raw_target = block.x / grid.lb - 0.5
        target_row = grid.site_of(block.center)[1]
        best = None
        for dist in range(grid.rows):
            if best is not None and float(dist * dist) > best[0]:
                break
            for row in sorted({target_row - dist, target_row + dist}):
                if not (0 <= row < grid.rows):
                    continue
                y_cost = float((row - target_row) ** 2)
                for segment in row_segments[row]:
                    if segment.used >= segment.capacity:
                        continue
                    trial = segment.clone()
                    before = trial.total_cost()
                    trial.insert(block, raw_target)
                    delta = y_cost + trial.total_cost() - before
                    if best is None or delta < best[0]:
                        best = (delta, row, segment)
        if best is None:
            raise RuntimeError("abacus legalization found no feasible row")
        _, _row, segment = best
        segment.insert(block, raw_target)

    placed = {}
    for row_idx, segments in enumerate(row_segments):
        for segment in segments:
            for cluster in segment.clusters:
                start = cluster.optimal_start(
                    float(segment.lo), float(segment.hi + 1)
                )
                start_col = int(round(start))
                start_col = max(
                    segment.lo, min(start_col, segment.hi + 1 - cluster.n)
                )
                for offset, (block, _t) in enumerate(cluster.cells):
                    col = start_col + offset
                    bins.occupy(col, row_idx, block.node_id)
                    center = grid.site_center(col, row_idx)
                    block.move_to(center.x, center.y)
                    placed[block.name] = (col, row_idx)
    return placed


# -- comparison --------------------------------------------------------------
def _compare(blocks, bins):
    """Run both on copies of one input; return the reference's outcome."""
    start = [(block.x, block.y) for block in blocks]
    ref_bins = copy.deepcopy(bins)
    try:
        expected = reference_abacus_legalize(blocks, ref_bins)
        outcome = "placed"
    except (RuntimeError, ValueError) as exc:
        expected, outcome = None, type(exc).__name__
    expected_xy = [(block.x, block.y) for block in blocks]
    for block, (x, y) in zip(blocks, start):
        block.move_to(x, y)

    if outcome == "RuntimeError":
        with pytest.raises(RuntimeError):
            abacus_legalize(blocks, bins)
        return outcome
    placed = abacus_legalize(blocks, bins)
    sites = [bins.grid.site_of(block.center) for block in blocks]
    assert len(set(sites)) == len(blocks)
    for block, site in zip(blocks, sites):
        assert bins.occupant(*site) == block.node_id
    if outcome == "placed":
        assert list(placed.items()) == list(expected.items())
        assert [(block.x, block.y) for block in blocks] == expected_xy
        assert (bins.kind_flat == ref_bins.kind_flat).all()
    return outcome


COLS, ROWS = 10, 4

obstacle_st = st.sets(
    st.tuples(st.integers(0, COLS - 1), st.integers(0, ROWS - 1)), max_size=8
)
coord_st = st.one_of(
    st.integers(0, COLS).map(float),  # integer x: cluster starts at k + 0.5
    st.floats(0.0, float(COLS), allow_nan=False, allow_infinity=False),
)
block_st = st.lists(
    st.tuples(coord_st, st.floats(0.0, float(ROWS) - 1e-6)), min_size=1, max_size=24
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(obstacles=obstacle_st, positions=block_st)
def test_abacus_matches_reference_on_random_rows(obstacles, positions):
    bins = BinGrid(SiteGrid(COLS, ROWS))
    for k, (col, row) in enumerate(sorted(obstacles)):
        bins.occupy(col, row, ("q", k))
    blocks = [
        WireBlock(resonator_key=(k // 3, k // 3 + 1), ordinal=k % 3, x=x, y=y)
        for k, (x, y) in enumerate(positions)
    ]
    _compare(blocks, bins)


WIDE_COLS, WIDE_ROWS = 200, 3


@st.composite
def wide_rows(draw):
    """Rows of 200+ columns cut every few columns by obstacles; targets on
    segment edges (site centres next to an obstacle), on half-integer raw
    targets, and anywhere."""
    cols = draw(st.integers(WIDE_COLS, WIDE_COLS + 40))
    period = draw(st.integers(2, 7))
    obstacles = {
        (col, row)
        for row in range(WIDE_ROWS)
        for col in range(draw(st.integers(0, period - 1)), cols, period)
    }
    obstacles -= draw(st.sets(st.sampled_from(sorted(obstacles)), max_size=10))
    edges = sorted(
        {c + d for c, _ in obstacles for d in (-1, 1) if 0 <= c + d < cols}
    )
    x_st = st.one_of(
        st.sampled_from(edges).map(lambda col: col + 0.5),
        st.integers(0, 2 * cols).map(lambda h: h / 2.0),
        st.floats(0.0, float(cols), allow_nan=False),
    )
    y_st = st.floats(0.0, float(WIDE_ROWS) - 1e-6)
    positions = draw(st.lists(st.tuples(x_st, y_st), min_size=1, max_size=40))
    return cols, obstacles, positions


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=wide_rows())
def test_abacus_matches_reference_on_wide_rows(spec):
    cols, obstacles, positions = spec
    bins = BinGrid(SiteGrid(cols, WIDE_ROWS))
    for k, (col, row) in enumerate(sorted(obstacles)):
        bins.occupy(col, row, ("q", k))
    blocks = [
        WireBlock(resonator_key=(k // 3, k // 3 + 1), ordinal=k % 3, x=x, y=y)
        for k, (x, y) in enumerate(positions)
    ]
    _compare(blocks, bins)


@settings(max_examples=300, deadline=None)
@given(
    lo=st.integers(0, 40),
    width=st.integers(1, 30),
    targets=st.lists(st.floats(-20.0, 90.0, allow_nan=False), max_size=29),
    t=st.one_of(
        st.floats(-20.0, 90.0, allow_nan=False),
        st.integers(-20, 180).map(lambda h: h / 2.0),
    ),
)
def test_trial_cost_rises_by_at_least_the_gap_squared(lo, width, targets, t):
    """The lower bound the segment skip relies on: inserting raw target
    ``t`` into ``[lo, hi]`` raises the segment's cost by at least the
    squared distance from ``t`` to the segment."""
    hi = lo + width - 1
    segment = LiveSegment(lo, hi)
    for target in targets[: width - 1]:
        segment.insert(None, target, segment.trial(target))
    gap = max(lo - t, t - hi, 0.0)
    assert segment.trial(t)[4] - segment.total_cost >= gap * gap - 1e-9


@settings(max_examples=300, deadline=None)
@given(
    lo=st.integers(0, 40),
    width=st.integers(1, 30),
    targets=st.lists(st.floats(-20.0, 90.0, allow_nan=False), max_size=29),
    t=st.floats(-20.0, 90.0, allow_nan=False),
)
def test_trial_is_the_merge_walk(lo, width, targets, t):
    """The no-merge shortcut returns the very tuple the walk gives, so
    inserting from a trial is inserting from a fresh walk."""
    segment = LiveSegment(lo, lo + width - 1)
    for target in targets[: width - 1]:
        assert segment.trial(target) == segment._merge(target)
        segment.insert(None, target, segment.trial(target))
    assert segment.trial(t) == segment._merge(t)


def test_abacus_matches_reference_on_the_protocol_layouts(monkeypatch):
    """The 12 Abacus calls of the paper protocol: six topologies x
    {abacus, q-abacus}, each from its GP snapshot."""
    outcomes = []

    def both(blocks, bins):  # the engine ignores the placement dict
        outcomes.append(_compare(blocks, bins))

    monkeypatch.setattr(engines, "abacus_legalize", both)
    for name in PAPER_TOPOLOGIES:
        flow = QGDPFlow(name)
        flow.place()
        snapshot = flow.netlist.snapshot()
        for engine in ("abacus", "q-abacus"):
            flow.restore(snapshot)
            flow.legalize(engine)
    assert outcomes == ["placed"] * 12
