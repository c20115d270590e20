"""Maze router: path validity, cost model, windows."""

import numpy as np
import pytest

from repro.geometry import Rect, SiteGrid
from repro.legalization import BinGrid
from repro.routing import MazeRouter


@pytest.fixture()
def bins():
    return BinGrid(SiteGrid(cols=10, rows=10))


def _route(bins, sources, targets, own_key=(0, 1), **kwargs):
    return MazeRouter(bins).route(set(sources), set(targets), own_key, **kwargs)


def test_straight_route(bins):
    result = _route(bins, [(0, 5)], [(9, 5)])
    assert result is not None
    assert result.path[0] == (0, 5)
    assert result.path[-1] == (9, 5)
    assert result.cost == pytest.approx(9.0)


def test_path_steps_are_adjacent(bins):
    result = _route(bins, [(0, 0)], [(9, 9)])
    for a, b in zip(result.path, result.path[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def test_qubits_are_impassable(bins):
    # Wall of qubit sites across the grid.
    for row in range(10):
        bins.occupy(5, row, ("q", 0))
    assert _route(bins, [(0, 5)], [(9, 5)]) is None


def test_route_around_partial_wall(bins):
    for row in range(9):
        bins.occupy(5, row, ("q", 0))
    result = _route(bins, [(0, 5)], [(9, 5)])
    assert result is not None
    assert (5, 9) in result.path  # squeezes through the opening


def test_foreign_blocks_cost_crossings(bins):
    for row in range(10):
        bins.occupy(5, row, ("b", (2, 3), row))
    result = _route(bins, [(0, 5)], [(9, 5)])
    assert result is not None
    assert result.num_crossings == 1
    assert result.crossings[0][1] == (2, 3)


def test_router_prefers_detour_over_crossing(bins):
    for row in range(1, 10):
        bins.occupy(5, row, ("b", (2, 3), row))  # gap at row 0
    result = _route(bins, [(0, 5)], [(9, 5)])
    assert result.num_crossings == 0
    assert (5, 0) in result.path


def test_own_blocks_are_free(bins):
    for col in range(1, 9):
        bins.occupy(col, 5, ("b", (0, 1), col))
    result = _route(bins, [(0, 5)], [(9, 5)], own_key=(0, 1))
    assert result.cost < 9.0  # rides its own blocks at zero cost
    assert result.num_crossings == 0


def test_window_restricts_search(bins):
    # Only corridor row 5 allowed; block it -> no route.
    for row in range(10):
        if row != 5:
            continue
    bins.occupy(5, 5, ("q", 0))
    result = _route(
        bins, [(0, 5)], [(9, 5)], window=(0, 5, 9, 5)
    )
    assert result is None  # cannot leave the single-row window


def test_extra_cost_steers_route(bins):
    # Flat overlay indexed col * rows + row: row 5 between the terminals.
    penalty = np.zeros(bins.grid.num_sites)
    penalty[[col * bins.grid.rows + 5 for col in range(1, 9)]] = 50.0

    result = _route(bins, [(0, 5)], [(9, 5)], extra_cost=penalty)
    middle = [s for s in result.path if 0 < s[0] < 9]
    assert all(s[1] != 5 for s in middle)


def test_empty_terminals_return_none(bins):
    assert _route(bins, [], [(1, 1)]) is None
    assert _route(bins, [(0, 0)], []) is None


def test_crossing_cost_must_exceed_step():
    bins = BinGrid(SiteGrid(4, 4))
    with pytest.raises(ValueError):
        MazeRouter(bins, step_cost=2.0, crossing_cost=1.0)


def test_source_equals_target(bins):
    result = _route(bins, [(3, 3)], [(3, 3)])
    assert result.path == [(3, 3)]
    assert result.cost == 0.0
