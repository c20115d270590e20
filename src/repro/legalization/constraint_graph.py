"""Horizontal/vertical constraint graphs for macro legalization [26].

Every macro pair must be separated in at least one axis (Eq. 1).  The
classical construction assigns each pair an arc in exactly one graph — the
axis in which the global placement already separates them best — with the
arc oriented from the lower-coordinate macro to the higher one.  Solving
each axis then becomes a 1-D problem over its graph.

:func:`build_constraint_arrays` builds both axes as parallel arrays
(:class:`AxisArcs`) from broadcast separation-ratio comparisons over the
sorted coordinate arrays, one O(n²) NumPy pass.
:func:`transitive_reduction` drops arcs already implied by chains of
other arcs — a reachability test, since separations add up along a
chain — keeping the LP row count near-linear on well-spread placements
without changing the feasible region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AxisArcs:
    """One axis' constraint graph as parallel arrays.

    ``lo`` / ``hi`` index into the sorted id list the graph was built
    over (not raw macro ids); ``sep`` is the required centre separation.
    Arc order matches the classical pair enumeration (outer index
    ascending, inner ascending) so LP rows assemble identically.
    """

    lo: np.ndarray
    hi: np.ndarray
    sep: np.ndarray

    def __len__(self) -> int:
        return int(self.sep.size)


def build_constraint_arrays(
    indices: list,
    positions: dict,
    sizes: dict,
    spacing: float,
) -> tuple:
    """Build the H and V constraint graphs for the given macros.

    Parameters
    ----------
    indices:
        Macro ids (qubit indices).
    positions:
        id → (x, y) global-placement centres.
    sizes:
        id → (w, h).
    spacing:
        Extra edge-to-edge spacing added to every separation (the quantum
        minimum spacing; 0 for the classical legalizer).

    Returns ``(ordered, h_axis, v_axis)`` where ``ordered`` is the sorted
    id list and each axis is an :class:`AxisArcs` whose ``lo``/``hi``
    index into ``ordered``; every unordered pair appears on exactly one
    axis.  The axis is chosen by the *separation ratio*: the pair goes
    horizontal when the GP x-gap covers more of its required x-separation
    than the y-gap does of its y-separation.  Each arc points from the
    lower ``(coordinate, id)`` to the higher, so sorting the nodes by
    that key orders every arc forward.  Elementwise arithmetic and
    comparisons are the same IEEE operations as the scalar pair loop, so
    the arc sets, orientations and separations are bit-identical to it.
    """
    ordered = sorted(indices)
    n = len(ordered)
    empty = AxisArcs(
        np.empty(0, dtype=np.intp),
        np.empty(0, dtype=np.intp),
        np.empty(0, dtype=np.float64),
    )
    if n < 2:
        return (ordered, empty, empty)

    x = np.array([positions[i][0] for i in ordered], dtype=np.float64)
    y = np.array([positions[i][1] for i in ordered], dtype=np.float64)
    w = np.array([sizes[i][0] for i in ordered], dtype=np.float64)
    h = np.array([sizes[i][1] for i in ordered], dtype=np.float64)

    # Row-major upper-triangle pairs reproduce the scalar loop order.
    iu, ju = np.triu_indices(n, k=1)
    sep_x = (w[iu] + w[ju]) / 2.0 + spacing
    sep_y = (h[iu] + h[ju]) / 2.0 + spacing
    ratio_x = np.abs(x[iu] - x[ju]) / sep_x
    ratio_y = np.abs(y[iu] - y[ju]) / sep_y
    horizontal = ratio_x >= ratio_y

    def axis(mask: np.ndarray, coord: np.ndarray, sep: np.ndarray) -> AxisArcs:
        a, b = iu[mask], ju[mask]
        forward = coord[a] <= coord[b]
        return AxisArcs(
            lo=np.where(forward, a, b),
            hi=np.where(forward, b, a),
            sep=sep[mask],
        )

    return (
        ordered,
        axis(horizontal, x, sep_x),
        axis(~horizontal, y, sep_y),
    )


def _reduction_by_reachability(axis: AxisArcs, num_nodes: int) -> AxisArcs:
    """Drop every arc that a ≥2-edge path re-derives (reachability only).

    Valid whenever any such path forces at least the direct separation —
    the additive-separation certificate checked by
    :func:`transitive_reduction`.  Reachability comes from repeated
    float32 matmul squaring (BLAS), ~ms even at 576 nodes.
    """
    adjacency = np.zeros((num_nodes, num_nodes), dtype=np.float32)
    adjacency[axis.lo, axis.hi] = 1.0
    reach = adjacency.copy()
    covered = int(np.count_nonzero(reach))
    while True:
        reach = np.minimum(reach + reach @ reach, 1.0)
        now = int(np.count_nonzero(reach))
        if now == covered:
            break
        covered = now
    # ≥2 edges: closure hop(s) into some w, then the direct arc w → v.
    via = reach @ adjacency
    keep = via[axis.lo, axis.hi] == 0.0
    return AxisArcs(axis.lo[keep], axis.hi[keep], axis.sep[keep])


def transitive_reduction(
    axis: AxisArcs,
    num_nodes: int,
    half_sizes: np.ndarray,
    spacing: float,
) -> AxisArcs:
    """Drop arcs implied by chains of other arcs (same feasible region).

    An arc ``u → v`` with separation ``s`` is redundant when some path
    ``u → … → v`` through other arcs already forces ``x_v - x_u`` to at
    least ``s``; the 1-D LP and the snap repair see the same solution set
    without it.

    ``half_sizes`` are the per-node half extents (indexed like the arcs)
    and ``spacing`` the extra edge-to-edge spacing.  When every arc
    separation decomposes additively as ``half[lo] + half[hi] + spacing``
    — as :func:`build_constraint_arrays` builds them — any 2-path
    ``u → w → v`` forces ``sep(u,v) + 2·half[w] + spacing ≥ sep(u,v)``,
    so redundancy degenerates to pure reachability, computed with float32
    boolean matmuls (milliseconds at 576 nodes).  The margin
    ``2·min(half) + spacing`` must clear float noise for that certificate
    to hold; ``QGDPConfig`` keeps it at least ``lb``.  When the
    certificate fails the axis comes back unreduced, which keeps the
    same feasible region for any input.
    """
    if len(axis) == 0 or num_nodes < 3:
        return axis
    decomposed = half_sizes[axis.lo] + half_sizes[axis.hi] + spacing
    margin = 2.0 * float(half_sizes.min(initial=np.inf)) + spacing
    if margin > 1e-6 and np.all(np.abs(axis.sep - decomposed) <= 1e-9):
        return _reduction_by_reachability(axis, num_nodes)
    return axis
