"""Tetris and Abacus standard-cell legalizers."""

import pytest

from repro.geometry import Rect, SiteGrid
from repro.legalization import BinGrid, abacus_legalize, tetris_legalize
from repro.netlist import Resonator, WireBlock


def _blocks(positions, key=(0, 1)):
    return [
        WireBlock(resonator_key=key, ordinal=k, x=x, y=y)
        for k, (x, y) in enumerate(positions)
    ]


def _assert_legal(blocks, bins):
    seen = set()
    for block in blocks:
        site = bins.grid.site_of(block.center)
        assert site not in seen, f"two blocks on {site}"
        seen.add(site)
        assert bins.occupant(*site) == block.node_id
        center = bins.grid.site_center(*site)
        assert (block.x, block.y) == (center.x, center.y)


@pytest.mark.parametrize("legalize", [tetris_legalize, abacus_legalize])
def test_overlapping_blocks_get_distinct_sites(legalize):
    bins = BinGrid(SiteGrid(12, 12))
    blocks = _blocks([(5.2, 5.2), (5.3, 5.3), (5.4, 5.1), (5.0, 5.4)])
    placed = legalize(blocks, bins)
    assert len(placed) == 4
    _assert_legal(blocks, bins)


@pytest.mark.parametrize("legalize", [tetris_legalize, abacus_legalize])
def test_blocks_avoid_macro_obstacles(legalize):
    bins = BinGrid(SiteGrid(12, 12))
    macro = Rect(5.5, 5.5, 3.0, 3.0)
    bins.occupy_rect(macro, ("q", 0))
    blocks = _blocks([(5.5, 5.5), (5.6, 5.4), (5.4, 5.6)])
    legalize(blocks, bins)
    macro_sites = set(bins.grid.sites_covered(macro))
    for block in blocks:
        assert bins.grid.site_of(block.center) not in macro_sites


@pytest.mark.parametrize("legalize", [tetris_legalize, abacus_legalize])
def test_already_placed_near_targets(legalize):
    bins = BinGrid(SiteGrid(16, 16))
    blocks = _blocks([(2.5, 2.5), (8.5, 8.5), (12.5, 3.5)])
    legalize(blocks, bins)
    for block, target in zip(blocks, [(2.5, 2.5), (8.5, 8.5), (12.5, 3.5)]):
        assert abs(block.x - target[0]) + abs(block.y - target[1]) <= 2.0


@pytest.mark.parametrize("legalize", [tetris_legalize, abacus_legalize])
def test_full_grid_raises(legalize):
    bins = BinGrid(SiteGrid(2, 2))
    for col in range(2):
        for row in range(2):
            bins.occupy(col, row, "x")
    with pytest.raises(RuntimeError):
        legalize(_blocks([(0.5, 0.5)]), bins)


@pytest.mark.parametrize("legalize", [tetris_legalize, abacus_legalize])
def test_exact_capacity_fits(legalize):
    bins = BinGrid(SiteGrid(3, 3))
    positions = [(c + 0.5, r + 0.5) for c in range(3) for r in range(3)]
    blocks = _blocks(positions)
    placed = legalize(blocks, bins)
    assert len(placed) == 9
    assert bins.num_free == 0


def test_tetris_frontier_cascades_rightward():
    """Cells contesting one site in a row cascade to increasing columns."""
    bins = BinGrid(SiteGrid(10, 1))
    blocks = _blocks([(2.5, 0.5), (2.6, 0.5), (2.7, 0.5)])
    tetris_legalize(blocks, bins)
    cols = sorted(bins.grid.site_of(b.center)[0] for b in blocks)
    assert cols == [2, 3, 4]


def test_abacus_clusters_center_on_targets():
    """Abacus balances a contested run around the mean target."""
    bins = BinGrid(SiteGrid(11, 1))
    blocks = _blocks([(5.5, 0.5), (5.5, 0.5), (5.5, 0.5)])
    abacus_legalize(blocks, bins)
    cols = sorted(bins.grid.site_of(b.center)[0] for b in blocks)
    assert cols == [4, 5, 6]


def test_abacus_respects_segment_boundaries():
    bins = BinGrid(SiteGrid(9, 1))
    bins.occupy(4, 0, ("q", 0))  # splits the row into two segments
    blocks = _blocks([(4.5, 0.5), (4.4, 0.5), (4.6, 0.5)])
    abacus_legalize(blocks, bins)
    for block in blocks:
        assert bins.grid.site_of(block.center) != (4, 0)


def test_tetris_row_tie_breaks_toward_lower_row():
    """Equidistant candidate rows resolve low-row-first, deterministically.

    Regression for the RPR001 finding in the row scan: iterating
    ``{target_row - dist, target_row + dist}`` directly exposed
    hash-table order, so the winner of a cost tie depended on the int
    hash layout instead of a documented rule.
    """
    bins = BinGrid(SiteGrid(5, 5))
    for col in range(5):
        bins.occupy(col, 2, ("q", 0))  # the target row is full
    blocks = _blocks([(2.5, 2.5)])
    placed = tetris_legalize(blocks, bins)
    # Rows 1 and 3 both offer column 2 at cost 1; the lower row wins.
    assert placed[blocks[0].name] == (2, 1)


def test_abacus_touching_clusters_at_half_integer_starts():
    """Touching clusters never round onto one column.

    Targets 2.0 and 3.0 give singleton clusters starting at 1.5 and 2.5.
    Python rounds halves to even, so both starts round to column 2; the
    commit lays a segment's clusters out left to right instead, each
    starting no earlier than the previous one ends.
    """
    bins = BinGrid(SiteGrid(12, 12))
    blocks = _blocks([(2.0, 4.5), (3.0, 4.5)])
    placed = abacus_legalize(blocks, bins)
    assert sorted(placed.values()) == [(2, 4), (3, 4)]
    _assert_legal(blocks, bins)
