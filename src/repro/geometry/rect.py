"""Axis-aligned rectangles and the pairwise measures the metrics need.

Rectangles are stored centre + size, matching the paper's formulation: the
non-overlap constraint (Eq. 1) and border constraint (Eq. 2) are both written
in terms of centre coordinates and half-dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.point import Point

#: Queries and candidate pairs :func:`near_pairs` expands at a time.
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


def _expand(counts: np.ndarray):
    """Yield ``(owner, offset)`` index arrays enumerating every
    ``offset in range(counts[owner])``, owner by owner, at most
    :data:`_PAIR_CHUNK` at a time."""
    stop = np.cumsum(counts)
    total = int(stop[-1]) if len(stop) else 0
    for first in range(0, total, _PAIR_CHUNK):
        flat = np.arange(first, min(first + _PAIR_CHUNK, total))
        owner = np.searchsorted(stop, flat, side="right")
        yield owner, flat - (stop[owner] - counts[owner])


def near_pairs(lo, hi, cutoff: float) -> np.ndarray:
    """``(m, 2)`` rows ``(i, j)``, ``i < j``, in lexicographic order, of
    the boxes whose per-axis gap ``max(lo) - min(hi)`` is at most
    ``cutoff`` on both axes (a negative gap is an overlap).

    ``lo`` and ``hi`` are ``(n, 2)`` corner arrays.  The boxes are sorted
    by ``(xlo, ylo)``, so boxes with equal ``xlo`` (one site column of a
    legal layout) form contiguous *column groups*, each sorted by
    ``ylo``.  In its own group a box scans on while ``ylo <= yhi +
    cutoff``.  A later box is within ``cutoff`` in x only if its ``xlo``
    is at most this box's ``xhi + cutoff``, which bounds the later groups
    a box scans; in each of them it scans only the ``ylo`` window ``[ylo
    - cutoff - max_h, yhi + cutoff]``, where ``max_h`` is the group's
    tallest box.  Every bound has a little slack against rounding, the
    windows come from ``searchsorted`` on exact integer keys (group index
    × ``ylo`` rank), and the exact two-axis test on the candidates
    decides.  Later-group windows and candidates are expanded
    :data:`_PAIR_CHUNK` at a time, so memory stays flat however many
    boxes share a window.
    """
    lo = np.asarray(lo, dtype=np.float64).reshape(-1, 2)
    hi = np.asarray(hi, dtype=np.float64).reshape(-1, 2)
    n = len(lo)
    if n < 2:
        return np.empty((0, 2), dtype=np.intp)
    order = np.lexsort((lo[:, 1], lo[:, 0]))
    xlo, ylo = lo[order].T.copy()
    xhi, yhi = hi[order].T.copy()
    scale = 1.0 + abs(cutoff) + max(np.abs(lo).max(), np.abs(hi).max())
    reach = cutoff + 1e-9 * scale
    # Column groups: runs of equal xlo, in ascending xlo.
    first = np.flatnonzero(np.concatenate(([True], xlo[1:] != xlo[:-1])))
    group = np.repeat(np.arange(len(first)), np.diff(np.append(first, n)))
    group_xlo = xlo[first]
    group_h = np.maximum.reduceat(yhi - ylo, first)
    # key ascends along the sorted boxes: by group, then by ylo.
    ylo_values, ylo_rank = np.unique(ylo, return_inverse=True)
    stride = len(ylo_values)
    key = group * stride + ylo_rank
    # Ranks below top[a] are the ylo <= yhi[a] + reach.
    top = np.searchsorted(ylo_values, yhi + reach, side="right")
    found = [np.empty((2, 0), dtype=np.intp)]

    def scan(a, start, stop):
        """Test each box ``a`` against the sorted boxes ``start..stop-1``."""
        for q, offset in _expand(np.maximum(stop - start, 0)):
            i = a[q]
            j = start[q] + offset
            # j sorts after i, so xlo[j] is the pair's max(xlo).
            gap_x = xlo[j] - np.minimum(xhi[i], xhi[j])
            gap_y = np.maximum(ylo[i], ylo[j]) - np.minimum(yhi[i], yhi[j])
            keep = (gap_x <= cutoff) & (gap_y <= cutoff)
            found.append(np.sort(order[np.stack((i[keep], j[keep]))], axis=0))

    own = np.arange(n)
    scan(own, own + 1, np.searchsorted(key, group * stride + top, side="left"))
    last_group = np.searchsorted(group_xlo, xhi + reach, side="right") - 1
    for a, k in _expand(np.maximum(last_group - group, 0)):
        g = group[a] + 1 + k
        bottom = np.searchsorted(
            ylo_values, ylo[a] - reach - group_h[g], side="left"
        )
        scan(
            a,
            np.searchsorted(key, g * stride + bottom, side="left"),
            np.searchsorted(key, g * stride + top[a], side="left"),
        )
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
