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
        # Buffers reused by every smoothing and gradient pass.
        self._padded = np.empty((self.ny + 2, self.nx + 2))
        self._gx = np.empty((self.ny, self.nx))
        self._gy = np.empty((self.ny, self.nx))

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
        """Density after one 3x3 box blur (keeps the gradient stable).

        The edge padding of ``np.pad(mode="edge")`` is written into a
        buffer kept across calls; the nine shifted adds run in the same
        ``(dy, dx)`` order from 0.0, so the sums are the same floats.
        """
        d = self._density
        ny, nx = d.shape
        padded = self._padded
        padded[1:-1, 1:-1] = d
        padded[0, 1:-1] = d[0]
        padded[-1, 1:-1] = d[-1]
        padded[:, 0] = padded[:, 1]
        padded[:, -1] = padded[:, -2]
        out = np.zeros_like(d)
        for dy in range(3):
            for dx in range(3):
                out += padded[dy : dy + ny, dx : dx + nx]
        out /= 9.0
        return out

    def gradient_at(self, bx: np.ndarray, by: np.ndarray) -> tuple:
        """Smoothed density gradient sampled at bins ``(bx, by)``, as
        :meth:`bin_of` and :meth:`deposit` return them.

        Returns ``(gx, gy)`` arrays; the spreading force is ``-grad``.
        The maps are what ``np.gradient`` computes at unit spacing:
        central differences ``(s[2:] − s[:-2]) / 2.0`` inside, one-sided
        differences at the edges (the map is at least 2x2).
        """
        smooth = self.smoothed()
        gx, gy = self._gx, self._gy
        np.subtract(smooth[:, 2:], smooth[:, :-2], out=gx[:, 1:-1])
        gx[:, 1:-1] /= 2.0
        np.subtract(smooth[:, 1], smooth[:, 0], out=gx[:, 0])
        np.subtract(smooth[:, -1], smooth[:, -2], out=gx[:, -1])
        np.subtract(smooth[2:], smooth[:-2], out=gy[1:-1])
        gy[1:-1] /= 2.0
        np.subtract(smooth[1], smooth[0], out=gy[0])
        np.subtract(smooth[-1], smooth[-2], out=gy[-1])
        flat = by * self.nx + bx
        return (gx.take(flat), gy.take(flat))
