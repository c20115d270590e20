"""Bin-aided free-space index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, SiteGrid
from repro.legalization import BinGrid


@pytest.fixture()
def bins():
    return BinGrid(SiteGrid(cols=10, rows=8))


def test_initially_all_free(bins):
    assert bins.num_free == 80
    assert bins.is_free(0, 0)
    assert bins.occupant(0, 0) is None


def test_occupy_and_release(bins):
    bins.occupy(3, 4, ("b", (0, 1), 0))
    assert not bins.is_free(3, 4)
    assert bins.occupant(3, 4) == ("b", (0, 1), 0)
    bins.release(3, 4)
    assert bins.is_free(3, 4)


def test_double_occupy_rejected(bins):
    bins.occupy(1, 1, "x")
    with pytest.raises(ValueError):
        bins.occupy(1, 1, "y")


def test_release_free_site_rejected(bins):
    with pytest.raises(ValueError):
        bins.release(0, 0)


def test_occupy_out_of_grid_rejected(bins):
    with pytest.raises(IndexError):
        bins.occupy(99, 0, "x")


def test_occupy_rect_covers_macro(bins):
    sites = bins.occupy_rect(Rect(1.5, 1.5, 3.0, 3.0), ("q", 0))
    assert len(sites) == 9
    assert bins.num_free == 80 - 9
    assert not bins.is_free(1, 1)


def test_nearest_free_prefers_self(bins):
    assert bins.nearest_free(5, 5) == (5, 5)


def test_nearest_free_skips_occupied(bins):
    bins.occupy(5, 5, "x")
    site = bins.nearest_free(5, 5)
    assert site != (5, 5)
    assert abs(site[0] - 5) + abs(site[1] - 5) == 1


def test_nearest_free_none_when_full():
    bins = BinGrid(SiteGrid(cols=2, rows=2))
    for col in range(2):
        for row in range(2):
            bins.occupy(col, row, "x")
    assert bins.nearest_free(0, 0) is None


def test_free_neighbors_updates(bins):
    bins.occupy(5, 5, "x")
    assert (5, 5) not in bins.free_neighbors(5, 4)
    assert set(bins.free_neighbors(5, 5)) == {(4, 5), (6, 5), (5, 4), (5, 6)}


def test_free_sites_row_major(bins):
    bins.occupy(0, 0, "x")
    sites = bins.free_sites()
    assert len(sites) == 79
    assert sites[0] == (1, 0)


@settings(max_examples=40, deadline=None)
@given(
    occupied=st.sets(
        st.tuples(st.integers(0, 9), st.integers(0, 7)), max_size=60
    ),
    query=st.tuples(st.integers(0, 9), st.integers(0, 7)),
)
def test_nearest_free_matches_brute_force(occupied, query):
    bins = BinGrid(SiteGrid(cols=10, rows=8))
    for col, row in sorted(occupied):
        bins.occupy(col, row, "x")
    result = bins.nearest_free(*query)
    free = bins.free_sites()
    if not free:
        assert result is None
        return

    def dist2(site):
        return (site[0] - query[0]) ** 2 + (site[1] - query[1]) ** 2

    assert result in free
    assert dist2(result) == min(dist2(s) for s in free)


# -- per-row flat-array probes ------------------------------------------------
def test_free_cols_in_row_tracks_occupancy(bins):
    assert list(bins.free_cols_in_row(3)) == list(range(10))
    bins.occupy(4, 3, "x")
    bins.occupy(7, 3, "x")
    assert list(bins.free_cols_in_row(3)) == [0, 1, 2, 3, 5, 6, 8, 9]
    bins.release(4, 3)
    assert list(bins.free_cols_in_row(3)) == [0, 1, 2, 3, 4, 5, 6, 8, 9]


@settings(max_examples=40, deadline=None)
@given(
    occupied=st.sets(
        st.tuples(st.integers(0, 9), st.integers(0, 7)), max_size=60
    ),
    row=st.integers(0, 7),
)
def test_flat_probes_match_legacy_free_lists(occupied, row):
    """The flat-array probe agrees with the sorted per-row free list that
    the plain set of occupied sites implies."""
    bins = BinGrid(SiteGrid(cols=10, rows=8))
    for site in sorted(occupied):
        bins.occupy(*site, "x")
    reference = [c for c in range(10) if (c, row) not in occupied]
    assert list(bins.free_cols_in_row(row)) == reference


def test_of_layout_rejects_overlapping_qubits(falcon_legalized):
    netlist, grid, _outcome = falcon_legalized
    first, second = netlist.qubits[:2]
    second.move_to(first.x, first.y)
    with pytest.raises(ValueError, match="already occupied"):
        BinGrid.of_layout(netlist, grid)
