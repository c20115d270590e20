"""Bin-density map for the global placer's spreading force."""

from __future__ import annotations

import numpy as np

from repro.geometry import SiteGrid


class DensityMap:
    """Occupancy histogram over coarse bins with a gradient for spreading.

    The global placer deposits each cell's area into the bin containing
    its centre, then pushes cells downhill along the smoothed density
    gradient — the classical diffusion-style spreading force.
    """

    def __init__(self, grid: SiteGrid, bin_size: float = 2.0) -> None:
        if bin_size <= 0:
            raise ValueError(f"bin_size must be positive, got {bin_size}")
        self.grid = grid
        self.bin_size = bin_size
        self.nx = max(2, int(np.ceil(grid.width / bin_size)))
        self.ny = max(2, int(np.ceil(grid.height / bin_size)))
        self._density = np.zeros((self.ny, self.nx))

    @property
    def density(self) -> np.ndarray:
        """Current density array, shape ``(ny, nx)``, units of area/bin."""
        return self._density

    def bin_of(self, xs: np.ndarray, ys: np.ndarray) -> tuple:
        """Vectorized bin indices (clipped to the map)."""
        bx = np.clip((xs / self.bin_size).astype(int), 0, self.nx - 1)
        by = np.clip((ys / self.bin_size).astype(int), 0, self.ny - 1)
        return (bx, by)

    def deposit(self, xs: np.ndarray, ys: np.ndarray, areas: np.ndarray) -> tuple:
        """Recompute the density from scratch for the given cells.

        Returns the cells' ``(bx, by)`` bins, for :meth:`gradient_at`.
        """
        bx, by = self.bin_of(xs, ys)
        # Each bin adds its cells' areas one by one from 0.0 in cell order,
        # bit-identical to ``np.add.at``; the cast is for no cells, where
        # ``np.bincount`` returns int64 zeros.
        flat = np.bincount(by * self.nx + bx, areas, minlength=self.nx * self.ny)
        self._density = flat.astype(np.float64, copy=False).reshape(
            self.ny, self.nx
        )
        return (bx, by)

    def smoothed(self) -> np.ndarray:
        """Density after one 3x3 box blur (keeps the gradient stable)."""
        d = self._density
        padded = np.pad(d, 1, mode="edge")
        out = np.zeros_like(d)
        for dy in range(3):
            for dx in range(3):
                out += padded[dy : dy + d.shape[0], dx : dx + d.shape[1]]
        return out / 9.0

    def gradient_at(self, bx: np.ndarray, by: np.ndarray) -> tuple:
        """Smoothed density gradient sampled at bins ``(bx, by)``, as
        :meth:`bin_of` and :meth:`deposit` return them.

        Returns ``(gx, gy)`` arrays; the spreading force is ``-grad``.
        """
        smooth = self.smoothed()
        gy, gx = np.gradient(smooth)
        return (gx[by, bx], gy[by, bx])
