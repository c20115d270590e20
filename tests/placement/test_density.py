"""Density map deposition and gradients."""

import numpy as np
import pytest

from repro.geometry import SiteGrid
from repro.placement import DensityMap


@pytest.fixture()
def density():
    return DensityMap(SiteGrid(cols=16, rows=16), bin_size=2.0)


def test_rejects_bad_bin_size():
    with pytest.raises(ValueError):
        DensityMap(SiteGrid(4, 4), bin_size=0.0)


def test_deposit_conserves_area(density):
    xs = np.array([1.0, 5.0, 9.0])
    ys = np.array([1.0, 5.0, 9.0])
    areas = np.array([1.0, 9.0, 1.0])
    density.deposit(xs, ys, areas)
    assert density.density.sum() == pytest.approx(11.0)


def test_deposit_replaces_previous(density):
    xs = np.array([1.0])
    ys = np.array([1.0])
    density.deposit(xs, ys, np.array([4.0]))
    density.deposit(xs, ys, np.array([2.0]))
    assert density.density.sum() == pytest.approx(2.0)


def test_bin_of_clipped(density):
    bx, by = density.bin_of(np.array([-10.0, 100.0]), np.array([-10.0, 100.0]))
    assert list(bx) == [0, density.nx - 1]
    assert list(by) == [0, density.ny - 1]


def test_gradient_points_away_from_peak(density):
    # Pile everything in the centre; gradient left of the peak is positive
    # (density increases to the right), so the spreading force -grad pushes
    # cells leftward.
    density.deposit(np.array([8.0]), np.array([8.0]), np.array([100.0]))
    gx_left, _ = density.gradient_at(
        *density.bin_of(np.array([5.0]), np.array([8.0]))
    )
    gx_right, _ = density.gradient_at(
        *density.bin_of(np.array([11.0]), np.array([8.0]))
    )
    assert gx_left[0] > 0
    assert gx_right[0] < 0


def test_smoothed_preserves_total(density):
    density.deposit(np.array([8.0]), np.array([8.0]), np.array([10.0]))
    assert density.smoothed().sum() == pytest.approx(10.0, rel=0.15)
