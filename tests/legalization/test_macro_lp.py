"""LP macro legalization: legality, minimal movement, snapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, SiteGrid
from repro.legalization import MacroLegalizationResult, legalize_macros
from repro.legalization import macro_lp
from repro.legalization.constraint_graph import build_constraint_arrays
from repro.legalization.macro_lp import _Axis, _solve_axis


def _check_legal(result, indices, sizes, grid, spacing):
    assert result.feasible
    rects = {
        i: Rect(result.positions[i][0], result.positions[i][1], *sizes[i])
        for i in indices
    }
    border = grid.border
    for i in indices:
        assert rects[i].inside(border, tol=1e-6)
    for a_pos, i in enumerate(indices):
        for j in indices[a_pos + 1 :]:
            inflated = rects[i].inflated(spacing / 2.0)
            other = rects[j].inflated(spacing / 2.0)
            assert not inflated.overlaps(other, tol=1e-6), (i, j)


def test_already_legal_stays_put():
    grid = SiteGrid(20, 20)
    positions = {0: (1.5, 1.5), 1: (10.5, 10.5)}
    sizes = {0: (3.0, 3.0), 1: (3.0, 3.0)}
    result = legalize_macros([0, 1], positions, sizes, grid)
    assert result.feasible
    assert result.total_displacement == pytest.approx(0.0, abs=1e-6)
    assert result.positions[0] == pytest.approx(positions[0])


def test_overlapping_macros_separated():
    grid = SiteGrid(20, 20)
    positions = {0: (8.0, 8.0), 1: (9.0, 8.2)}
    sizes = {0: (3.0, 3.0), 1: (3.0, 3.0)}
    result = legalize_macros([0, 1], positions, sizes, grid)
    _check_legal(result, [0, 1], sizes, grid, 0.0)


def test_spacing_enforced():
    grid = SiteGrid(20, 20)
    positions = {0: (8.0, 8.0), 1: (11.2, 8.0)}  # gap 0.2 < spacing 1
    sizes = {0: (3.0, 3.0), 1: (3.0, 3.0)}
    result = legalize_macros([0, 1], positions, sizes, grid, spacing=1.0)
    _check_legal(result, [0, 1], sizes, grid, 1.0)
    gap = abs(result.positions[0][0] - result.positions[1][0]) - 3.0
    assert gap >= 1.0 - 1e-6


def test_positions_snap_to_sites():
    grid = SiteGrid(20, 20)
    positions = {0: (8.37, 8.91)}
    sizes = {0: (3.0, 3.0)}
    result = legalize_macros([0], positions, sizes, grid)
    x, y = result.positions[0]
    assert (x - 1.5) == pytest.approx(round(x - 1.5))
    assert (y - 1.5) == pytest.approx(round(y - 1.5))


def test_border_clamping():
    grid = SiteGrid(10, 10)
    positions = {0: (0.0, 0.0)}  # centre outside feasible range
    sizes = {0: (3.0, 3.0)}
    result = legalize_macros([0], positions, sizes, grid)
    assert result.feasible
    assert result.positions[0][0] >= 1.5 - 1e-9


def test_infeasible_when_macros_cannot_fit():
    grid = SiteGrid(5, 5)
    positions = {i: (2.5, 2.5) for i in range(4)}
    sizes = {i: (3.0, 3.0) for i in range(4)}
    result = legalize_macros(list(range(4)), positions, sizes, grid)
    assert not result.feasible
    # Contract: positions are unchanged (the input placement) on failure.
    assert result.positions == positions
    assert result.positions is not positions  # a defensive copy


def test_tight_border_tie_is_not_spuriously_infeasible():
    """Regression: snap rounding can tie two centres exactly (half-even
    rounding on an arc with a one-site separation).  The historical
    forward/backward repair re-oriented the arc along the tied order and
    reported infeasibility; the bound-respecting sweep must keep the arc
    direction and succeed."""
    grid = SiteGrid(8, 8)
    # Arc 1 -> 0 (qubit 1 left of qubit 0), separation exactly one site.
    positions = {0: (3.0, 4.5), 1: (2.0, 4.5)}
    sizes = {0: (1.0, 1.0), 1: (1.0, 1.0)}
    result = legalize_macros([0, 1], positions, sizes, grid)
    _check_legal(result, [0, 1], sizes, grid, 0.0)
    assert result.positions[0][0] - result.positions[1][0] >= 1.0 - 1e-9


def test_empty_input():
    grid = SiteGrid(5, 5)
    result = legalize_macros([], {}, {}, grid)
    assert result.feasible
    assert result.total_displacement == 0.0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(2, 28), st.floats(2, 28)),
        min_size=2,
        max_size=7,
        unique=True,
    )
)
def test_random_instances_legalize_legally(centers):
    grid = SiteGrid(40, 40)
    indices = list(range(len(centers)))
    positions = {i: centers[i] for i in indices}
    sizes = {i: (3.0, 3.0) for i in indices}
    result = legalize_macros(indices, positions, sizes, grid, spacing=1.0)
    _check_legal(result, indices, sizes, grid, 1.0)


def test_pinned_where_the_snapped_order_reverses_an_arc():
    """On x, macros 18 and 9 (arc 18 -> 9, one site apart) both snap to
    6.5, so the ``(snapped, id)`` order puts 9 first, against the arc.
    The historical repair walked that axis by Kahn; the sweep in target
    order must give the same output, pinned here."""
    indices = [14, 18, 5, 15, 16, 9]
    positions = {
        14: (13.500001, 23.5),
        18: (6.500001, 25.0),
        5: (23.25, 23.5),
        15: (14.500001, 7.0),
        16: (20.499999, 21.5),
        9: (7.0, 24.5),
    }
    sizes = {
        14: (1, 1), 18: (1, 2), 5: (3, 2), 15: (3, 3), 16: (2, 1), 9: (1, 1)
    }
    result = legalize_macros(indices, positions, sizes, SiteGrid(30, 30))
    assert result == MacroLegalizationResult(
        feasible=True,
        positions={
            14: (13.5, 23.5),
            18: (6.5, 25.0),
            5: (23.5, 23.0),
            15: (14.5, 7.5),
            16: (20.0, 21.5),
            9: (7.5, 24.5),
        },
        total_displacement=2.2500019999999976,
        max_displacement=0.75,
        spacing=0.0,
    )


def test_each_axis_orders_groups_and_pulls_back_once(monkeypatch, count_calls):
    """One feasible call: per axis, one grouping of the in-arcs and one
    of the out-arcs, and one backward limit pass shared by the presolve
    and the snap repair."""
    groupings = count_calls(macro_lp._grouped_arcs)
    pull_back = macro_lp._Axis._pull_back
    pulls = []

    def counting(self, x):
        pulls.append(True)
        return pull_back(self, x)

    monkeypatch.setattr(macro_lp._Axis, "_pull_back", counting)
    positions = {0: (8.0, 8.0), 1: (9.0, 8.2), 2: (8.5, 12.0)}
    sizes = {i: (3.0, 3.0) for i in positions}
    result = legalize_macros([0, 1, 2], positions, sizes, SiteGrid(20, 20))
    assert result.feasible
    assert len(groupings) == 4
    assert len(pulls) == 2


# ---------------------------------------------------------------------------
# Presolve: certificate soundness and objective parity.
# ---------------------------------------------------------------------------


def _no_highs(*args, **kwargs):
    raise AssertionError("the presolve should have settled this axis")


def _axis_instance(centers, width, spacing):
    """One H-axis LP instance from equal 3×3 macros at the given centres."""
    indices = list(range(len(centers)))
    positions = {i: (c, 1.5) for i, c in enumerate(centers)}
    sizes = {i: (3.0, 3.0) for i in indices}
    ordered, h_arcs, _ = build_constraint_arrays(
        indices, positions, sizes, spacing
    )
    targets = np.array([positions[i][0] for i in indices])
    half = np.full(len(indices), 1.5)
    return indices, h_arcs, targets, half


def test_presolve_certifies_infeasible_axis(monkeypatch):
    # Three 3-wide macros + spacing 1 need 11 units; only 10 exist.
    indices, arcs, targets, half = _axis_instance(
        [2.0, 5.0, 8.0], width=10.0, spacing=1.0
    )
    cold = _solve_axis(arcs, targets, half, 10.0 - half)
    monkeypatch.setattr(macro_lp, "linprog", _no_highs)
    assert _Axis(indices, arcs, targets, half, 10.0).solve() is None
    # The cold solve agrees, so the fast-fail changes nothing observable.
    assert cold is None


def test_presolve_optimal_clamp_matches_cold_solve_objective(monkeypatch):
    # Already separated: the clamp shortcut must return the targets.
    indices, arcs, targets, half = _axis_instance(
        [2.0, 8.0, 14.0], width=20.0, spacing=1.0
    )
    monkeypatch.setattr(macro_lp, "linprog", _no_highs)
    warm = _Axis(indices, arcs, targets, half, 20.0).solve()
    assert np.allclose(warm, targets)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(1.5, 38.5), min_size=2, max_size=8, unique=True
    ),
    st.sampled_from([0.0, 1.0, 2.0]),
)
def test_warm_axis_solve_matches_cold_objective(centers, spacing):
    """Presolved and cold axis solves agree on feasibility and objective."""
    indices, arcs, targets, half = _axis_instance(
        centers, width=40.0, spacing=spacing
    )
    cold = _solve_axis(arcs, targets, half, 40.0 - half)
    warm = _Axis(indices, arcs, targets, half, 40.0).solve()
    assert (cold is None) == (warm is None)
    if cold is None:
        return
    for sol in (cold, warm):
        assert np.all(sol[arcs.hi] - sol[arcs.lo] >= arcs.sep - 1e-6)
        assert np.all(sol >= half - 1e-6)
        assert np.all(sol <= 40.0 - half + 1e-6)
    cold_obj = np.abs(cold - targets).sum()
    warm_obj = np.abs(warm - targets).sum()
    assert warm_obj == pytest.approx(cold_obj, abs=1e-6)
