"""Line-segment intersection and sampling, used by the trace metrics.

:func:`segments_intersect` is the scalar kernel; :func:`proper_crossings_mask`
is its vectorized twin over stacked endpoint arrays.  Both run the same
IEEE float64 subtractions, multiplications and strict-``tol`` comparisons,
so the mask is bit-equal to calling the scalar kernel per row.
:func:`expand_samples` walks many segments at once for the crossing
counter's bridged-block walk and the Eq. 4 hotspot walk.
"""

from __future__ import annotations

import numpy as np


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    """Signed area orientation of triangle (a, b, c)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _orient_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_orient` over ``(m, 2)`` point arrays."""
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (
        b[:, 1] - a[:, 1]
    ) * (c[:, 0] - a[:, 0])


def proper_crossings_mask(
    p1: np.ndarray,
    p2: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    tol: float = 1e-9,
) -> np.ndarray:
    """Row-wise :func:`segments_intersect` over ``(m, 2)`` endpoint arrays.

    Row ``k`` is True iff ``segments_intersect(p1[k], p2[k], q1[k],
    q2[k], tol)`` — same orientation arithmetic, same strict
    double-straddle test, evaluated for all rows in one pass.
    """
    d1 = _orient_rows(q1, q2, p1)
    d2 = _orient_rows(q1, q2, p2)
    d3 = _orient_rows(p1, p2, q1)
    d4 = _orient_rows(p1, p2, q2)
    straddles_q = ((d1 > tol) & (d2 < -tol)) | ((d1 < -tol) & (d2 > tol))
    straddles_p = ((d3 > tol) & (d4 < -tol)) | ((d3 < -tol) & (d4 > tol))
    return straddles_q & straddles_p


def segments_intersect(
    p1: tuple, p2: tuple, q1: tuple, q2: tuple, tol: float = 1e-9
) -> bool:
    """True when segment ``p1p2`` properly crosses segment ``q1q2``.

    *Proper* crossing: the segments intersect at a single interior point.
    Shared endpoints and collinear touching do NOT count — two resonator
    traces meeting at a common qubit are not an airbridge.
    """
    d1 = _orient(*q1, *q2, *p1)
    d2 = _orient(*q1, *q2, *p2)
    d3 = _orient(*p1, *p2, *q1)
    d4 = _orient(*p1, *p2, *q2)
    return (
        ((d1 > tol and d2 < -tol) or (d1 < -tol and d2 > tol))
        and ((d3 > tol and d4 < -tol) or (d3 < -tol and d4 > tol))
    )


def count_pairwise_crossings(segments_a: list, segments_b: list) -> int:
    """Number of proper intersections between two segment sets.

    Each set is a list of ``((x1, y1), (x2, y2))`` tuples.
    """
    count = 0
    for p1, p2 in segments_a:
        for q1, q2 in segments_b:
            if segments_intersect(p1, p2, q1, q2):
                count += 1
    return count


def expand_samples(segments: list) -> tuple:
    """``(x, y, sample_len, tag)`` sample arrays over all segments.

    ``segments`` rows are ``(x1, y1, x2, y2, length, steps, tag)`` in
    walk order; each expands to ``steps + 1`` samples, each carrying its
    segment's integer ``tag``.  Sample coordinates use exactly the
    historical per-point arithmetic (``x1 + (x2 - x1) * (k / steps)``),
    elementwise, so they are bit-identical to a scalar walk.
    """
    seg = np.array([row[:6] for row in segments], dtype=np.float64)
    tag = np.array([row[6] for row in segments], dtype=np.int64)
    steps = seg[:, 5].astype(np.int64)
    counts = steps + 1
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    seg_id = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(int(counts.sum()), dtype=np.int64) - starts[seg_id]
    t_frac = k / steps[seg_id]
    x = seg[seg_id, 0] + (seg[seg_id, 2] - seg[seg_id, 0]) * t_frac
    y = seg[seg_id, 1] + (seg[seg_id, 3] - seg[seg_id, 1]) * t_frac
    sample_len = (seg[:, 4] / steps)[seg_id]
    return (x, y, sample_len, tag[seg_id])
