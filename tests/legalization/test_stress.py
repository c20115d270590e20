"""Stress and failure-injection tests for the legalization stack."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, SiteGrid
from repro.legalization import (
    BinGrid,
    abacus_legalize,
    integration_aware_legalize,
    tetris_legalize,
)
from repro.netlist import Resonator, WireBlock, cluster_count


def _blocks(n, x, y, key=(0, 1)):
    return [
        WireBlock(resonator_key=key, ordinal=k, x=x, y=y) for k in range(n)
    ]


def _resonator(key, n, x, y):
    r = Resonator(qi=key[0], qj=key[1], wirelength=float(n))
    r.blocks = _blocks(n, x, y, key)
    return r


@pytest.mark.parametrize("legalize", [tetris_legalize, abacus_legalize])
def test_near_full_grid_still_legal(legalize):
    """95% pre-occupied grid: the remaining cells must still fit legally."""
    bins = BinGrid(SiteGrid(10, 10))
    free = [(c, r) for c in range(10) for r in range(10)]
    for col, row in free[:95]:
        bins.occupy(col, row, ("b", (9, 10), 0))
    blocks = _blocks(5, 5.0, 5.0)
    legalize(blocks, bins)
    sites = {bins.grid.site_of(b.center) for b in blocks}
    assert len(sites) == 5
    assert bins.num_free == 0


def test_integration_on_near_full_grid():
    bins = BinGrid(SiteGrid(10, 10))
    free = [(c, r) for c in range(10) for r in range(10)]
    for col, row in free[:90]:
        bins.occupy(col, row, ("b", (9, 10), 0))
    r = _resonator((0, 1), 10, 5.0, 5.0)
    integration_aware_legalize([r], bins)
    assert bins.num_free == 0
    sites = {bins.grid.site_of(b.center) for b in r.blocks}
    assert len(sites) == 10


@settings(max_examples=15, deadline=None)
@given(
    seeds=st.lists(
        st.tuples(st.floats(1.0, 19.0), st.floats(1.0, 19.0)),
        min_size=1,
        max_size=6,
    ),
    sizes=st.lists(st.integers(2, 10), min_size=6, max_size=6),
)
# Four resonators crowd the grid corner: the fourth one's first block
# has no free neighbour left, so its second block falls back to the
# nearest free bin and the resonator splits into two clusters.
@example(
    seeds=[(1.0, 1.0), (1.0, 2.0), (1.0, 2.0), (1.0, 1.0)],
    sizes=[2, 2, 2, 3, 2, 2],
)
def test_integration_random_instances_contiguous(seeds, sizes):
    """Random multi-resonator instances: legal, split only by fallbacks.

    Algorithm 1 grows each resonator through adjacent free bins (Baa);
    only a block that finds Baa empty falls back to the nearest free bin
    and may start a new cluster.  So every cluster beyond a resonator's
    first is paid for by a fallback block, and an instance with no
    fallback keeps every resonator unified.
    """
    bins = BinGrid(SiteGrid(24, 24))
    resonators = []
    for k, (x, y) in enumerate(seeds):
        resonators.append(_resonator((2 * k, 2 * k + 1), sizes[k], x, y))
    result = integration_aware_legalize(resonators, bins)
    occupied = set()
    for r in resonators:
        for b in r.blocks:
            site = bins.grid.site_of(b.center)
            assert site not in occupied
            occupied.add(site)
    extra_clusters = sum(cluster_count(r) - 1 for r in resonators)
    assert extra_clusters <= result.fallback_blocks


@pytest.mark.parametrize("legalize", [tetris_legalize, abacus_legalize])
def test_obstacle_maze_does_not_lose_blocks(legalize):
    """A comb of macro teeth: every block still gets a unique legal site."""
    bins = BinGrid(SiteGrid(20, 20))
    for col in range(2, 18, 4):
        bins.occupy_rect(Rect(col + 0.5, 8.0, 1.0, 14.0), ("q", col))
    blocks = _blocks(30, 10.0, 8.0)
    legalize(blocks, bins)
    sites = {bins.grid.site_of(b.center) for b in blocks}
    assert len(sites) == 30


def test_empty_resonator_list_noop():
    bins = BinGrid(SiteGrid(5, 5))
    result = integration_aware_legalize([], bins)
    assert result.placed == {}
    assert bins.num_free == 25


@pytest.mark.parametrize("legalize", [tetris_legalize, abacus_legalize])
def test_empty_block_list_noop(legalize):
    bins = BinGrid(SiteGrid(5, 5))
    assert legalize([], bins) == {}
