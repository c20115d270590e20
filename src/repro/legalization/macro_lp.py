"""LP-based macro legalization with minimal displacement [26].

Given the H/V constraint graphs, each axis is solved independently as a
linear program: minimize total displacement from the global-placement
positions subject to the arc separations and the border bounds.  This is
the dual-of-min-cost-flow formulation the paper adopts from Tang et
al. [26], solved by scipy's HiGHS.

Each axis's arcs come from :func:`~repro.legalization.constraint_graph
.build_constraint_arrays`, transitively reduced (the same feasible
region from near-linear rows instead of O(n²)).  They point from the
lower ``(coordinate, id)`` to the higher, so sorting the nodes by that
key is a topological order: :class:`_Axis` computes it once and groups
the arcs by node rank once, and every sweep of the axis walks it.  Each
sweep sets a node from its neighbours' final values with exact max/min,
so any topological order gives the same floats.

* **Presolve.**  A forward sweep from the half sizes gives the implied
  lower bounds ``lo`` and a backward sweep from the border the implied
  upper bounds ``hi`` (longest paths; every feasible solution lies in
  ``[lo, hi]``).  Bounds crossed by more than float noise certify
  infeasibility without a solve, which fast-fails a relaxation-retry
  attempt.  A clamp of the targets into ``[lo, hi]`` that satisfies
  every arc attains the objective's pointwise lower bound, so it is
  optimal and HiGHS is skipped.  Otherwise HiGHS solves over
  ``[lo, hi]``, or over the plain border box when the bounds cross by
  float noise only.  scipy's HiGHS wrapper exposes no basis API, so
  this is the whole warm start.
* **Assembly.**  The constraint matrix is one ``coo_matrix`` built from
  flat index/data arrays, in the historical scalar row order, so HiGHS
  sees the same problem and returns the same vertex.
* **Snap and repair.**  The continuous solution is snapped to the site
  grid, and the forward sweep, started from the snapped positions and
  capped at ``hi``, restores any separation the rounding broke without
  moving a node past its upper limit.  Sound because all separations
  and borders are integral in site units (``QGDPConfig`` keeps qubit
  sizes and spacings whole sites), so a feasible continuous solution
  implies a feasible integral one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.geometry import SiteGrid
from repro.legalization.constraint_graph import (
    AxisArcs,
    build_constraint_arrays,
    transitive_reduction,
)


@dataclass
class MacroLegalizationResult:
    """Outcome of one macro legalization attempt.

    On failure (``feasible`` is False) ``positions`` is the *input*
    placement, unchanged — callers keep a usable layout either way and
    escalate (e.g. relax spacing) off the ``feasible`` flag alone.
    """

    feasible: bool
    positions: dict
    total_displacement: float
    max_displacement: float
    spacing: float


def _solve_axis(
    arcs: AxisArcs,
    targets: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """Min-displacement 1-D LP over the box ``[lower, upper]``.

    Returns the coordinates, or None if HiGHS finds no solution.
    Variables are ``[x_0..x_{n-1}, d_0..d_{n-1}]`` with ``arcs`` indexing
    into the same node order as ``targets``.  Rows: one per arc
    (``x_lo - x_hi <= -sep``), then two per node (``±(x_k - t_k) <=
    d_k``), assembled as flat index/data arrays.
    """
    n = targets.size
    m = len(arcs)
    ks = np.arange(n)

    rows = np.concatenate(
        [np.repeat(np.arange(m), 2), m + np.repeat(np.arange(2 * n), 2)]
    )
    cols = np.concatenate(
        [
            np.stack([arcs.lo, arcs.hi], axis=1).ravel(),
            (np.repeat(ks, 4) + np.tile([0, n, 0, n], n)),
        ]
    )
    data = np.concatenate(
        [np.tile([1.0, -1.0], m), np.tile([1.0, -1.0, -1.0, -1.0], n)]
    )
    rhs = np.concatenate(
        [-arcs.sep, np.stack([targets, -targets], axis=1).ravel()]
    )

    a_ub = sparse.coo_matrix(
        (data, (rows, cols)), shape=(rhs.size, 2 * n)
    ).tocsr()
    c = np.concatenate([np.zeros(n), np.ones(n)])
    bounds = np.concatenate(
        [np.stack([lower, upper], axis=1), np.tile([0.0, np.inf], (n, 1))]
    )

    result = linprog(c, A_ub=a_ub, b_ub=rhs, bounds=bounds, method="highs")
    if not result.success:
        return None
    return result.x[:n]


def _grouped_arcs(rank_key: np.ndarray, n: int, *columns) -> tuple:
    """Sort arc columns by a node-rank key and return per-rank boundaries.

    ``starts[r]:starts[r + 1]`` then slices every sorted column to the
    arcs whose key node has rank ``r``, so a sweep reduces a node's arcs
    in one vectorized min/max.
    """
    by_rank = np.argsort(rank_key, kind="stable")
    key_sorted = rank_key[by_rank]
    starts = np.searchsorted(key_sorted, np.arange(n + 1))
    return (starts, *(column[by_rank] for column in columns))


class _Axis:
    """One axis of the LP: its topological order, arc groups and bounds.

    ``ids``, ``targets`` and ``half_sizes`` are per node, in the node
    order ``arcs`` indexes.  Building the axis runs both presolve sweeps,
    so ``lo`` and ``hi`` are the implied bounds; :meth:`solve` and
    :meth:`snap_and_repair` read them.
    """

    def __init__(
        self,
        ids: list,
        arcs: AxisArcs,
        targets: np.ndarray,
        half_sizes: np.ndarray,
        extent: float,
    ) -> None:
        n = targets.size
        self.arcs = arcs
        self.targets = targets
        self.half_sizes = half_sizes
        self.extent = extent
        # Every arc points from the lower (target, id) to the higher.
        self.order = np.lexsort((ids, targets))
        rank = np.empty(n, dtype=np.intp)
        rank[self.order] = np.arange(n)
        self.preds = _grouped_arcs(rank[arcs.hi], n, arcs.lo, arcs.sep)
        self.succs = _grouped_arcs(rank[arcs.lo], n, arcs.hi, arcs.sep)
        self.lo = self._push_forward(half_sizes.copy())
        self.hi = self._pull_back(extent - half_sizes)

    def _push_forward(
        self, x: np.ndarray, cap: np.ndarray = None
    ) -> np.ndarray:
        """Raise each node, in order, to its half size and its
        predecessors' separations, then lower it to ``cap`` (in place)."""
        starts, pred, sep = self.preds
        for r, node in enumerate(self.order.tolist()):
            bound = self.half_sizes[node]
            if starts[r] != starts[r + 1]:
                arcs = slice(starts[r], starts[r + 1])
                bound = max(bound, (x[pred[arcs]] + sep[arcs]).max())
            value = max(x[node], bound)
            x[node] = value if cap is None else min(value, cap[node])
        return x

    def _pull_back(self, x: np.ndarray) -> np.ndarray:
        """Lower each node, in reverse order, to its successors' limits
        less their separations (in place)."""
        starts, succ, sep = self.succs
        order = self.order.tolist()
        for r in range(len(order) - 1, -1, -1):
            if starts[r] != starts[r + 1]:
                arcs = slice(starts[r], starts[r + 1])
                node = order[r]
                x[node] = min(x[node], (x[succ[arcs]] - sep[arcs]).min())
        return x

    def solve(self) -> np.ndarray:
        """The continuous optimum before snapping, or None if infeasible."""
        gap = self.lo - self.hi
        if np.any(gap > 1e-6):
            return None
        arcs, targets = self.arcs, self.targets
        if np.all(gap <= 0.0):
            clamp = np.minimum(np.maximum(targets, self.lo), self.hi)
            if np.all(clamp[arcs.hi] - clamp[arcs.lo] >= arcs.sep):
                return clamp
            return _solve_axis(arcs, targets, self.lo, self.hi)
        # Crossed by float noise only: HiGHS judges the plain border box.
        half = self.half_sizes
        return _solve_axis(arcs, targets, half, self.extent - half)

    def snap_and_repair(self, solution: np.ndarray, lb: float) -> np.ndarray:
        """Snap to the site grid, then restore the arc separations.

        A macro of width ``w`` sites is aligned when ``centre - w/2`` is
        a multiple of ``lb``; the forward sweep capped at ``hi`` keeps
        that alignment because separations and borders are integral in
        ``lb``, and never moves a node below a bound it already restored.
        """
        half = self.half_sizes
        snapped = np.rint((solution - half) / lb) * lb + half
        return self._push_forward(snapped, cap=self.hi)


def _arcs_satisfied(
    solution: np.ndarray, arcs: AxisArcs, tol: float = 1e-6
) -> bool:
    return bool(
        np.all(solution[arcs.hi] - solution[arcs.lo] >= arcs.sep - tol)
    )


def legalize_macros(
    indices: list,
    positions: dict,
    sizes: dict,
    grid: SiteGrid,
    spacing: float = 0.0,
) -> MacroLegalizationResult:
    """Legalize macros with the given extra spacing; positions unchanged on failure.

    This is the classical macro legalizer when ``spacing == 0`` and the
    building block of the quantum qubit legalizer otherwise.
    """
    if not indices:
        return MacroLegalizationResult(True, {}, 0.0, 0.0, spacing)
    ordered, h_arcs, v_arcs = build_constraint_arrays(
        indices, positions, sizes, spacing
    )
    n = len(indices)
    half_sorted = np.array(
        [sizes[i] for i in ordered], dtype=np.float64
    ) / 2.0
    h_arcs = transitive_reduction(h_arcs, n, half_sorted[:, 0], spacing)
    v_arcs = transitive_reduction(v_arcs, n, half_sorted[:, 1], spacing)
    # LP variables keep the caller's id order (the historical column
    # order); remap the sorted-order arc endpoints onto it.
    pos_in_input = {node: k for k, node in enumerate(indices)}
    to_input = np.array(
        [pos_in_input[node] for node in ordered], dtype=np.intp
    )
    h_arcs = AxisArcs(to_input[h_arcs.lo], to_input[h_arcs.hi], h_arcs.sep)
    v_arcs = AxisArcs(to_input[v_arcs.lo], to_input[v_arcs.hi], v_arcs.sep)

    targets = np.array([positions[i] for i in indices], dtype=np.float64)
    half = np.array([sizes[i] for i in indices], dtype=np.float64) / 2.0

    def failure() -> MacroLegalizationResult:
        return MacroLegalizationResult(
            False, dict(positions), 0.0, 0.0, spacing
        )

    placed = []
    axes = ((h_arcs, grid.width), (v_arcs, grid.height))
    for k, (arcs, extent) in enumerate(axes):
        lp = _Axis(indices, arcs, targets[:, k], half[:, k], extent)
        solution = lp.solve()
        if solution is None:
            return failure()
        placed.append(lp.snap_and_repair(solution, grid.lb))
    sol_x, sol_y = placed
    if not (_arcs_satisfied(sol_x, h_arcs) and _arcs_satisfied(sol_y, v_arcs)):
        return failure()
    if not (
        np.all(half[:, 0] - 1e-6 <= sol_x)
        and np.all(sol_x <= grid.width - half[:, 0] + 1e-6)
        and np.all(half[:, 1] - 1e-6 <= sol_y)
        and np.all(sol_y <= grid.height - half[:, 1] + 1e-6)
    ):
        return failure()

    # Left-to-right Python summation keeps the reported displacement
    # bit-identical to the historical per-node accumulation.
    moves = (
        np.abs(sol_x - targets[:, 0]) + np.abs(sol_y - targets[:, 1])
    ).tolist()
    return MacroLegalizationResult(
        feasible=True,
        positions={
            i: (float(sol_x[k]), float(sol_y[k]))
            for k, i in enumerate(indices)
        },
        total_displacement=float(sum(moves)),
        max_displacement=float(max(moves)),
        spacing=spacing,
    )
