"""Axis-aligned rectangles and the pairwise measures the metrics need.

Rectangles are stored centre + size, matching the paper's formulation: the
non-overlap constraint (Eq. 1) and border constraint (Eq. 2) are both written
in terms of centre coordinates and half-dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.point import Point

#: x-candidate pairs :func:`near_pairs` expands and tests at a time.
_PAIR_CHUNK = 1 << 14


@dataclass
class Rect:
    """A mutable axis-aligned rectangle, centre ``(cx, cy)``, size ``(w, h)``."""

    cx: float
    cy: float
    w: float
    h: float

    # -- bounds ----------------------------------------------------------
    @property
    def xlo(self) -> float:
        """Left edge."""
        return self.cx - self.w / 2.0

    @property
    def xhi(self) -> float:
        """Right edge."""
        return self.cx + self.w / 2.0

    @property
    def ylo(self) -> float:
        """Bottom edge."""
        return self.cy - self.h / 2.0

    @property
    def yhi(self) -> float:
        """Top edge."""
        return self.cy + self.h / 2.0

    @property
    def area(self) -> float:
        """Rectangle area."""
        return self.w * self.h

    @property
    def center(self) -> Point:
        """Centre point."""
        return Point(self.cx, self.cy)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_bounds(cls, xlo: float, ylo: float, xhi: float, yhi: float) -> "Rect":
        """Build a rect from corner bounds (``xhi >= xlo``, ``yhi >= ylo``)."""
        if xhi < xlo or yhi < ylo:
            raise ValueError(f"degenerate bounds ({xlo}, {ylo}, {xhi}, {yhi})")
        return cls((xlo + xhi) / 2.0, (ylo + yhi) / 2.0, xhi - xlo, yhi - ylo)

    def moved_to(self, cx: float, cy: float) -> "Rect":
        """Return a copy recentred at ``(cx, cy)``."""
        return Rect(cx, cy, self.w, self.h)

    def inflated(self, margin: float) -> "Rect":
        """Return a copy grown by ``margin`` on every side."""
        return Rect(self.cx, self.cy, self.w + 2.0 * margin, self.h + 2.0 * margin)

    # -- predicates --------------------------------------------------------
    def overlaps(self, other: "Rect", tol: float = 1e-9) -> bool:
        """True when the interiors intersect (touching edges do not count)."""
        return (
            overlap_length_x(self, other) > tol and overlap_length_y(self, other) > tol
        )

    def contains_point(self, p: Point, tol: float = 1e-9) -> bool:
        """True when ``p`` lies inside or on the boundary."""
        return (
            self.xlo - tol <= p.x <= self.xhi + tol
            and self.ylo - tol <= p.y <= self.yhi + tol
        )

    def inside(self, border: "Rect", tol: float = 1e-9) -> bool:
        """True when this rect is fully contained in ``border`` (Eq. 2)."""
        return (
            self.xlo >= border.xlo - tol
            and self.xhi <= border.xhi + tol
            and self.ylo >= border.ylo - tol
            and self.yhi <= border.yhi + tol
        )


def overlap_length_x(a: Rect, b: Rect) -> float:
    """Length of the x-axis projection overlap (0 when disjoint)."""
    return max(0.0, min(a.xhi, b.xhi) - max(a.xlo, b.xlo))


def overlap_length_y(a: Rect, b: Rect) -> float:
    """Length of the y-axis projection overlap (0 when disjoint)."""
    return max(0.0, min(a.yhi, b.yhi) - max(a.ylo, b.ylo))


def overlap_area(a: Rect, b: Rect) -> float:
    """Intersection area of two rectangles."""
    return overlap_length_x(a, b) * overlap_length_y(a, b)


def gap_between(a: Rect, b: Rect) -> float:
    """Smallest edge-to-edge separation between two rectangles.

    Zero when the rectangles touch or overlap.  For diagonal separation the
    Euclidean corner gap is returned.
    """
    dx = max(0.0, max(a.xlo, b.xlo) - min(a.xhi, b.xhi))
    dy = max(0.0, max(a.ylo, b.ylo) - min(a.yhi, b.yhi))
    if dx > 0.0 and dy > 0.0:
        return (dx * dx + dy * dy) ** 0.5
    return max(dx, dy)


def rect_bounds(rects: list) -> tuple:
    """``(lo, hi)`` corner arrays of ``rects``, bit-equal to ``xlo`` etc."""
    boxes = np.array([(r.cx, r.cy, r.w, r.h) for r in rects]).reshape(-1, 4)
    return boxes[:, :2] - boxes[:, 2:] / 2.0, boxes[:, :2] + boxes[:, 2:] / 2.0


def near_pairs(lo, hi, cutoff: float) -> np.ndarray:
    """``(m, 2)`` rows ``(i, j)``, ``i < j``, in lexicographic order, of
    the boxes whose per-axis gap ``max(lo) - min(hi)`` is at most
    ``cutoff`` on both axes (a negative gap is an overlap).

    ``lo`` and ``hi`` are ``(n, 2)`` corner arrays.  One sweep over the
    boxes sorted by ``xlo``: a later box is within ``cutoff`` in x only
    if its ``xlo`` is at most this box's ``xhi + cutoff``, so
    ``searchsorted`` (with a little slack against rounding) bounds each
    box's x-candidates, and the exact two-axis test on them decides.
    Candidates are expanded :data:`_PAIR_CHUNK` at a time, so memory
    stays flat however many boxes share an x-range.
    """
    lo = np.asarray(lo, dtype=np.float64).reshape(-1, 2)
    hi = np.asarray(hi, dtype=np.float64).reshape(-1, 2)
    n = len(lo)
    if n < 2:
        return np.empty((0, 2), dtype=np.intp)
    order = np.argsort(lo[:, 0], kind="stable")
    xlo, ylo = lo[order].T.copy()
    xhi, yhi = hi[order].T.copy()
    scale = 1.0 + abs(cutoff) + max(np.abs(lo).max(), np.abs(hi).max())
    end = np.searchsorted(xlo, xhi + (cutoff + 1e-9 * scale), side="right")
    counts = np.maximum(end - np.arange(1, n + 1), 0)
    stop = np.cumsum(counts)
    found = [np.empty((2, 0), dtype=np.intp)]
    for first in range(0, int(stop[-1]), _PAIR_CHUNK):
        flat = np.arange(first, min(first + _PAIR_CHUNK, int(stop[-1])))
        a = np.searchsorted(stop, flat, side="right")
        b = a + 1 + flat - (stop[a] - counts[a])
        # b sorts after a, so xlo[b] is the pair's max(xlo).
        gap_x = xlo[b] - np.minimum(xhi[a], xhi[b])
        gap_y = np.maximum(ylo[a], ylo[b]) - np.minimum(yhi[a], yhi[b])
        keep = (gap_x <= cutoff) & (gap_y <= cutoff)
        found.append(np.sort(order[np.stack((a[keep], b[keep]))], axis=0))
    i, j = np.concatenate(found, axis=1)
    rank = np.lexsort((j, i))
    return np.stack((i[rank], j[rank]), axis=1)


def adjacency_length(a: Rect, b: Rect, reach: float) -> float:
    """Facing-edge length between two rectangles within ``reach``.

    This is the ``p_i ∩ p_j`` term of Eq. 4: the length along which the two
    component polygons face each other once each is inflated by half the
    interaction ``reach``.  Components farther apart than ``reach`` in both
    axes contribute zero.
    """
    gap = gap_between(a, b)
    if gap > reach:
        return 0.0
    shared_x = overlap_length_x(a, b)
    shared_y = overlap_length_y(a, b)
    # The facing span is whichever projection overlap is positive; for
    # diagonal neighbours within reach, fall back to the smaller footprint
    # edge so a nonzero (but small) adjacency is reported.
    if shared_x > 0.0 or shared_y > 0.0:
        return max(shared_x, shared_y)
    return min(min(a.w, a.h), min(b.w, b.h)) * 0.25
