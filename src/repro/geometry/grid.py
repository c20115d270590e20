"""Site grid: the discrete lattice legalization snaps onto.

The paper defines the resonator wire-block size ``lb`` as the standard-cell
pitch; everything is legalized onto a lattice of ``lb`` × ``lb`` sites.  A
site is addressed by integer column/row ``(col, row)``; its *centre* in
layout coordinates is ``((col + 0.5) * lb, (row + 0.5) * lb)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass(frozen=True)
class SiteGrid:
    """A ``cols`` × ``rows`` lattice of square sites with pitch ``lb``."""

    cols: int
    rows: int
    lb: float = 1.0

    def __post_init__(self) -> None:
        if self.cols <= 0 or self.rows <= 0:
            raise ValueError(f"grid must be positive, got {self.cols}x{self.rows}")
        if self.lb <= 0:
            raise ValueError(f"site pitch must be positive, got {self.lb}")

    # -- extents ---------------------------------------------------------
    @property
    def width(self) -> float:
        """Substrate width W in layout units."""
        return self.cols * self.lb

    @property
    def height(self) -> float:
        """Substrate height H in layout units."""
        return self.rows * self.lb

    @property
    def border(self) -> Rect:
        """The substrate border rectangle (Eq. 2's (W, H))."""
        return Rect.from_bounds(0.0, 0.0, self.width, self.height)

    @property
    def num_sites(self) -> int:
        """Total number of sites."""
        return self.cols * self.rows

    # -- flat indexing -----------------------------------------------------
    # Sites flatten **column-major** (``flat = col * rows + row``) so that
    # ascending flat index coincides with ascending ``(col, row)`` tuple
    # order; the array-backed occupancy index and the maze router rely on
    # this to keep flat-keyed orderings identical to tuple-keyed ones.
    def flat_index(self, col: int, row: int) -> int:
        """Column-major flat index of a site (no bounds check)."""
        return col * self.rows + row

    # -- coordinate mapping ----------------------------------------------
    def site_center(self, col: int, row: int) -> Point:
        """Centre of site ``(col, row)`` in layout coordinates."""
        self._check(col, row)
        return Point((col + 0.5) * self.lb, (row + 0.5) * self.lb)

    def site_of(self, p: Point) -> tuple:
        """The ``(col, row)`` of the site containing ``p`` (clamped to grid)."""
        col = int(p.x // self.lb)
        row = int(p.y // self.lb)
        return (min(max(col, 0), self.cols - 1), min(max(row, 0), self.rows - 1))

    def snap(self, p: Point) -> Point:
        """Snap a point to the centre of its containing site."""
        col, row = self.site_of(p)
        return self.site_center(col, row)

    def in_grid(self, col: int, row: int) -> bool:
        """True when ``(col, row)`` addresses a real site."""
        return 0 <= col < self.cols and 0 <= row < self.rows

    def clamp_rect(self, rect: Rect) -> Rect:
        """Recentre ``rect`` so it lies fully inside the border (Eq. 2)."""
        half_w, half_h = rect.w / 2.0, rect.h / 2.0
        cx = min(max(rect.cx, half_w), self.width - half_w)
        cy = min(max(rect.cy, half_h), self.height - half_h)
        return rect.moved_to(cx, cy)

    def covered_span(self, rect: Rect) -> tuple:
        """``(lo_col, hi_col, lo_row, hi_row)`` of the sites ``rect`` covers.

        The span is clipped to the grid; it is empty (``lo > hi`` on an
        axis) when ``rect`` covers no site.  Sites that merely touch the
        rect boundary are excluded, so a macro occupying an integer number
        of sites spans exactly those sites.
        """
        eps = 1e-9
        return (
            max(0, int((rect.xlo + eps) // self.lb)),
            min(self.cols - 1, int((rect.xhi - eps) // self.lb)),
            max(0, int((rect.ylo + eps) // self.lb)),
            min(self.rows - 1, int((rect.yhi - eps) // self.lb)),
        )

    def sites_covered(self, rect: Rect) -> list:
        """All ``(col, row)`` sites whose area intersects ``rect``, row by
        row (see :meth:`covered_span`)."""
        lo_col, hi_col, lo_row, hi_row = self.covered_span(rect)
        return [
            (c, r)
            for r in range(lo_row, hi_row + 1)
            for c in range(lo_col, hi_col + 1)
        ]

    def neighbors4(self, col: int, row: int) -> list:
        """The in-grid 4-neighbourhood of a site."""
        candidates = ((col - 1, row), (col + 1, row), (col, row - 1), (col, row + 1))
        return [(c, r) for c, r in candidates if self.in_grid(c, r)]

    def _check(self, col: int, row: int) -> None:
        if not self.in_grid(col, row):
            raise IndexError(
                f"site ({col}, {row}) outside grid {self.cols}x{self.rows}"
            )
