"""Parity: the array Dijkstra equals the historical tuple-keyed router.

The reference below is a faithful transcription of the original pure-Python
``MazeRouter.route`` (dict/set state, ``(col, row)`` tuple keys).  The
array implementation must return the *same path* — not just the same cost —
on randomized grids, because the detailed placer's accept decisions depend
on where the corridor lands.  Flat indices are column-major precisely so
heap tie-breaking matches tuple ordering; these tests pin that invariant.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import SiteGrid
from repro.legalization import BinGrid
from repro.routing import MazeRouter
from repro.routing.maze import RouteResult


def _reference_site_cost(router, site, own_key, extra_cost=None):
    owner = router.bins.occupant(*site)
    if owner is None:
        base = router.step_cost
    elif owner[0] == "q":
        return None
    elif owner[0] == "b" and owner[1] == own_key:
        base = router.own_cost
    else:
        base = router.crossing_cost
    if extra_cost is not None:
        base += extra_cost(site)
    return base


def _in_window(site, window):
    lo_col, lo_row, hi_col, hi_row = window
    return lo_col <= site[0] <= hi_col and lo_row <= site[1] <= hi_row


def reference_route(router, sources, targets, own_key, window=None, extra_cost=None):
    """The original tuple-keyed Dijkstra, verbatim."""
    if not sources or not targets:
        return None
    grid = router.bins.grid
    target_set = set(targets)
    dist = {}
    prev = {}
    heap = []
    for site in sources:
        if window is not None and not _in_window(site, window):
            continue
        dist[site] = 0.0
        heapq.heappush(heap, (0.0, site))

    visited = set()
    found = None
    while heap:
        d, site = heapq.heappop(heap)
        if site in visited:
            continue
        visited.add(site)
        if site in target_set:
            found = site
            break
        for neighbor in grid.neighbors4(*site):
            if neighbor in visited:
                continue
            if window is not None and not _in_window(neighbor, window):
                continue
            if neighbor in target_set:
                cost = router.step_cost
            else:
                cost = _reference_site_cost(router, neighbor, own_key, extra_cost)
                if cost is None:
                    continue
            nd = d + cost
            if neighbor not in dist or nd < dist[neighbor]:
                dist[neighbor] = nd
                prev[neighbor] = site
                heapq.heappush(heap, (nd, neighbor))

    if found is None:
        return None
    path = [found]
    while path[-1] in prev:
        path.append(prev[path[-1]])
    path.reverse()
    crossings = []
    for site in path:
        owner = router.bins.occupant(*site)
        if owner is not None and owner[0] == "b" and owner[1] != own_key:
            crossings.append(owner)
    return RouteResult(path=path, cost=dist[found], crossings=crossings)


def _populated_bins(cols, rows, qubits, foreign, own, own_key):
    bins = BinGrid(SiteGrid(cols, rows))
    taken = set()
    for i, site in enumerate(sorted(qubits)):
        bins.occupy(site[0], site[1], ("q", i))
        taken.add(site)
    for i, site in enumerate(sorted(foreign)):
        if site not in taken:
            bins.occupy(site[0], site[1], ("b", (90, 91), i))
            taken.add(site)
    for i, site in enumerate(sorted(own)):
        if site not in taken:
            bins.occupy(site[0], site[1], ("b", own_key, i))
            taken.add(site)
    return bins


site_st = st.tuples(st.integers(0, 8), st.integers(0, 7))
site_sets = st.sets(site_st, max_size=20)


@settings(max_examples=60, deadline=None)
@given(
    qubits=site_sets,
    foreign=site_sets,
    own=site_sets,
    sources=st.sets(site_st, min_size=1, max_size=4),
    targets=st.sets(site_st, min_size=1, max_size=4),
)
def test_route_matches_reference_exactly(qubits, foreign, own, sources, targets):
    own_key = (0, 1)
    bins = _populated_bins(9, 8, qubits, foreign, own, own_key)
    router = MazeRouter(bins)
    got = router.route(set(sources), set(targets), own_key)
    want = reference_route(router, set(sources), set(targets), own_key)
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.cost == want.cost  # bit-equal, not approximate
    assert got.path == want.path
    assert got.crossings == want.crossings


@settings(max_examples=40, deadline=None)
@given(
    foreign=site_sets,
    sources=st.sets(site_st, min_size=1, max_size=3),
    targets=st.sets(site_st, min_size=1, max_size=3),
    lo_col=st.integers(0, 4),
    lo_row=st.integers(0, 4),
    w=st.integers(0, 6),
    h=st.integers(0, 5),
)
def test_windowed_route_matches_reference(
    foreign, sources, targets, lo_col, lo_row, w, h
):
    own_key = (0, 1)
    bins = _populated_bins(9, 8, set(), foreign, set(), own_key)
    router = MazeRouter(bins)
    window = (lo_col, lo_row, min(8, lo_col + w), min(7, lo_row + h))
    got = router.route(set(sources), set(targets), own_key, window=window)
    want = reference_route(
        router, set(sources), set(targets), own_key, window=window
    )
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.cost == want.cost
        assert got.path == want.path
        assert got.crossings == want.crossings


@settings(max_examples=30, deadline=None)
@given(
    foreign=site_sets,
    sources=st.sets(site_st, min_size=1, max_size=3),
    targets=st.sets(site_st, min_size=1, max_size=3),
    px=st.integers(0, 8),
    weight=st.floats(0.5, 30.0, allow_nan=False),
)
def test_extra_cost_callable_matches_reference(foreign, sources, targets, px, weight):
    """The flat overlay the router takes equals the reference's callable."""
    own_key = (0, 1)
    bins = _populated_bins(9, 8, set(), foreign, set(), own_key)
    router = MazeRouter(bins)

    def penalty(site):
        return weight if site[0] == px else 0.0

    grid = bins.grid
    overlay = np.array(
        [penalty(divmod(flat, grid.rows)) for flat in range(grid.num_sites)]
    )
    got = router.route(set(sources), set(targets), own_key, extra_cost=overlay)
    want = reference_route(
        router, set(sources), set(targets), own_key, extra_cost=penalty
    )
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.cost == want.cost
        assert got.path == want.path


@settings(max_examples=40, deadline=None)
@given(qubits=site_sets, foreign=site_sets, own=site_sets)
def test_vectorized_cost_array_matches_scalar_model(qubits, foreign, own):
    own_key = (0, 1)
    bins = _populated_bins(9, 8, qubits, foreign, own, own_key)
    router = MazeRouter(bins)
    cost = router._build_cost(own_key, None)
    rows = bins.grid.rows
    for col in range(bins.grid.cols):
        for row in range(rows):
            ref = _reference_site_cost(router, (col, row), own_key)
            flat = col * rows + row
            if ref is None:
                assert cost[flat] == float("inf")
            else:
                assert cost[flat] == ref
