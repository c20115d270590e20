"""Model-based property test: BinGrid against a plain dict of occupied sites.

``BinGrid`` holds occupancy only in its flat ``kind`` / ``owner_idx`` /
``res_idx`` arrays.  Every mutation — occupy, release, occupy_rect,
including ones that raise — is mirrored into a ``{site: owner}`` dict,
and after each one every query (``is_free``, ``occupant``, ``num_free``,
``free_sites``, ``nearest_free`` and the per-site kind / resonator-key
codes) must answer exactly what the dict implies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, SiteGrid
from repro.legalization import BinGrid
from repro.legalization.bins import KIND_BLOCK, KIND_FREE, KIND_OTHER, KIND_QUBIT

COLS, ROWS = 7, 6
GRID_SITES = [(col, row) for col in range(COLS) for row in range(ROWS)]

# Sites one step past every border, so out-of-grid mutations and queries
# are exercised too.
site_st = st.tuples(st.integers(-1, COLS), st.integers(-1, ROWS))
query_st = st.tuples(st.integers(-2, COLS + 1), st.integers(-2, ROWS + 1))

owner_st = st.one_of(
    st.builds(lambda i: ("q", i), st.integers(0, 5)),
    st.builds(
        lambda a, b, o: ("b", (min(a, b), max(a, b) + 1), o),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 3),
    ),
    st.sampled_from(["x", "marker"]),
)

op_st = st.one_of(
    st.tuples(st.just("occupy"), site_st, owner_st, query_st),
    st.tuples(st.just("release"), site_st, st.none(), query_st),
    st.tuples(
        st.just("rect"),
        st.tuples(
            st.integers(0, COLS - 2),
            st.integers(0, ROWS - 2),
            st.integers(1, 3),
            st.integers(1, 3),
        ),
        owner_st,
        query_st,
    ),
)


def model_free_sites(model):
    """Free sites in row-major order."""
    return [
        (col, row)
        for row in range(ROWS)
        for col in range(COLS)
        if (col, row) not in model
    ]


def model_nearest_free(model, col, row):
    """The free site with the smallest (distance², row, column)."""
    free = model_free_sites(model)
    if not free:
        return None
    return min(
        free,
        key=lambda s: ((s[0] - col) ** 2 + (s[1] - row) ** 2, s[1], s[0]),
    )


def model_kind(owner):
    if owner is None:
        return KIND_FREE
    if isinstance(owner, tuple) and owner[0] == "q":
        return KIND_QUBIT
    if isinstance(owner, tuple) and owner[0] == "b":
        return KIND_BLOCK
    return KIND_OTHER


def assert_matches_model(bins, model, query):
    for col, row in GRID_SITES:
        owner = model.get((col, row))
        flat = bins.grid.flat_index(col, row)
        assert bins.is_free(col, row) == (owner is None)
        assert bins.occupant(col, row) == owner
        assert bins.kind_flat[flat] == model_kind(owner)
        if model_kind(owner) == KIND_BLOCK:
            assert bins.res_idx_flat[flat] == bins.res_key_index(owner[1])
        else:
            assert bins.res_idx_flat[flat] == -1
    assert bins.num_free == COLS * ROWS - len(model)
    assert bins.free_sites() == model_free_sites(model)
    assert bins.nearest_free(*query) == model_nearest_free(model, *query)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(op_st, max_size=40), first_query=query_st)
def test_array_and_dict_state_never_diverge(ops, first_query):
    bins = BinGrid(SiteGrid(COLS, ROWS))
    model = {}  # site -> owner
    assert_matches_model(bins, model, first_query)
    for op, arg, owner, query in ops:
        if op == "occupy":
            col, row = arg
            if not bins.grid.in_grid(col, row):
                with pytest.raises(IndexError):
                    bins.occupy(col, row, owner)
            elif (col, row) in model:
                with pytest.raises(ValueError):
                    bins.occupy(col, row, owner)
            else:
                bins.occupy(col, row, owner)
                model[(col, row)] = owner
        elif op == "release":
            col, row = arg
            if (col, row) in model:
                bins.release(col, row)
                del model[(col, row)]
            else:
                with pytest.raises(ValueError):
                    bins.release(col, row)
        else:
            lo_col, lo_row, w, h = arg
            rect = Rect(
                lo_col + w / 2.0, lo_row + h / 2.0, float(w), float(h)
            )
            covered = bins.grid.sites_covered(rect)
            if any(site in model for site in covered):
                with pytest.raises(ValueError):
                    bins.occupy_rect(rect, owner)
            else:
                bins.occupy_rect(rect, owner)
                for site in covered:
                    model[site] = owner
        assert_matches_model(bins, model, query)


def test_failed_occupy_rect_is_atomic():
    bins = BinGrid(SiteGrid(COLS, ROWS))
    bins.occupy(2, 2, "x")
    with pytest.raises(ValueError):
        bins.occupy_rect(Rect(2.0, 2.0, 2.0, 2.0), ("q", 0))
    # Only the pre-existing occupant remains.
    assert_matches_model(bins, {(2, 2): "x"}, (2, 2))


def test_out_of_grid_probes_are_safe():
    bins = BinGrid(SiteGrid(COLS, ROWS))
    assert not bins.is_free(-1, 0)
    assert not bins.is_free(0, ROWS)
    assert bins.occupant(-1, 0) is None
    assert bins.occupant(COLS, 0) is None
