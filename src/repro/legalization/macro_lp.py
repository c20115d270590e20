"""LP-based macro legalization with minimal displacement [26].

Given the H/V constraint graphs, each axis is solved independently as a
linear program: minimize total displacement from the global-placement
positions subject to the arc separations and the border bounds.  This is
the dual-of-min-cost-flow formulation the paper adopts from Tang et
al. [26]; with ≤ 127 qubits scipy's HiGHS solves it in milliseconds.

The constraint matrix is assembled from vectorized index/data arrays
(one ``coo_matrix`` build, no per-row Python loop) over the axis arc
arrays of :func:`~repro.legalization.constraint_graph
.build_constraint_arrays`; variable and row order match the historical
scalar assembly exactly, so HiGHS sees the same problem and returns the
same vertex.

Two on-by-default levers shrink or skip the HiGHS work (scipy's HiGHS
wrapper exposes no basis API, so the warm start is solution-level and
exact rather than simplex-basis reuse): the constraint graphs are
transitively reduced before assembly (a reachability test over the
additive separations: same feasible region, near-linear rows instead of
O(n²)), and :func:`_warm_presolve` derives longest-path
implied bounds per axis — certifying infeasibility without a solve
(which fast-fails every relaxation-retry attempt in the spacing
schedule), returning a provably optimal clamp of the targets when it
satisfies all arcs, and otherwise tightening the variable box for the
solve that does run.  Positional parity with the historical cold
full-graph solve is deliberately re-baselined through the committed
golden-fingerprint suite (``tests/golden/``, ``tools/write_baselines
.py``) whenever these levers shift a degenerate optimum.

After the continuous solve, positions are snapped to the site grid and a
single bound-respecting forward sweep restores any arc separation the
rounding broke: upper limits are first propagated backwards from the
border through the arc DAG, then each node (in topological order) is
pushed up to its predecessors' separations and clamped to its limit —
sound because all separations and borders are integral in site units, so
a feasible continuous solution implies a feasible integral one.  (The
historical forward/backward pair could pull a node below a bound the
forward pass had just restored and report spurious infeasibility on
tight-border instances; the combined clamp cannot.)
"""

from __future__ import annotations

import heapq
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


def _implied_bounds(
    ids: list,
    targets: np.ndarray,
    half_sizes: np.ndarray,
    arcs: AxisArcs,
    extent: float,
) -> tuple:
    """Longest-path implied interval ``[lo_k, hi_k]`` for every node.

    ``lo`` pushes the border/half-size lower bounds forward through the
    arc DAG (every feasible ``x_k`` satisfies ``x_k >= lo_k``); ``hi``
    propagates the upper border backwards.  Exact — each node reduces its
    grouped arc slice in one vectorized max/min, no fixed-point loop.
    Returns ``None`` when no topological order exists (cyclic arcs).
    """
    n = targets.size
    order = _topological_order(n, arcs, targets, ids)
    if order.size != n:
        return None
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)

    in_starts, in_lo, in_sep = _grouped_arcs(
        rank[arcs.hi], n, arcs.lo, arcs.sep
    )
    out_starts, out_hi, out_sep = _grouped_arcs(
        rank[arcs.lo], n, arcs.hi, arcs.sep
    )

    lo = half_sizes.copy()
    for r in range(n):
        lo_arc, hi_arc = in_starts[r], in_starts[r + 1]
        if lo_arc == hi_arc:
            continue
        node = order[r]
        pred = (lo[in_lo[lo_arc:hi_arc]] + in_sep[lo_arc:hi_arc]).max()
        lo[node] = max(lo[node], pred)

    hi = extent - half_sizes
    for r in range(n - 1, -1, -1):
        lo_arc, hi_arc = out_starts[r], out_starts[r + 1]
        if lo_arc == hi_arc:
            continue
        node = order[r]
        succ = (hi[out_hi[lo_arc:hi_arc]] - out_sep[lo_arc:hi_arc]).min()
        hi[node] = min(hi[node], succ)
    return (lo, hi)


#: Sentinel distinguishing "certified infeasible, skip the solve" from
#: "no presolve conclusion" in :func:`_warm_presolve`.
_INFEASIBLE = "infeasible"


def _warm_presolve(
    ids: list,
    targets: np.ndarray,
    half_sizes: np.ndarray,
    arcs: AxisArcs,
    extent: float,
) -> tuple:
    """Solution-level warm start for one axis solve.

    Returns one of ``(_INFEASIBLE, None)`` — the implied bounds cross by
    more than float noise, so the LP cannot be feasible and the HiGHS
    call (including every relaxation-retry resolve) is skipped;
    ``("optimal", x)`` — clamping the targets into the implied bounds
    already satisfies every arc, and since any feasible solution obeys
    those bounds pointwise, the clamp attains the objective's pointwise
    lower bound and is returned without invoking HiGHS; or
    ``("bounds", (lo, hi))`` — no shortcut fired, but the tightened
    bounds (same feasible region) warm-start the HiGHS solve.  ``None``
    when the presolve cannot run (cyclic arc input).
    """
    bounds = _implied_bounds(ids, targets, half_sizes, arcs, extent)
    if bounds is None:
        return None
    lo, hi = bounds
    gap = lo - hi
    if np.any(gap > 1e-6):
        return (_INFEASIBLE, None)
    if np.all(gap <= 0.0):
        warm = np.minimum(np.maximum(targets, lo), hi)
        if np.all(warm[arcs.hi] - warm[arcs.lo] >= arcs.sep):
            return ("optimal", warm)
        return ("bounds", (lo, hi))
    # Marginally crossed bounds: leave the verdict to HiGHS untightened.
    return None


def _solve_axis(
    arcs: AxisArcs,
    targets: np.ndarray,
    half_sizes: np.ndarray,
    extent: float,
    ids: list = None,
    warm_start: bool = False,
) -> np.ndarray:
    """Min-displacement 1-D LP; returns coordinates or None if infeasible.

    Variables are ``[x_0..x_{n-1}, d_0..d_{n-1}]`` with ``arcs`` indexing
    into the same node order as ``targets``.  Rows: one per arc
    (``x_lo - x_hi <= -sep``), then two per node (``±(x_k - t_k) <=
    d_k``), assembled as flat index/data arrays.

    With ``warm_start`` (requires ``ids`` for topological tie-breaks),
    the :func:`_warm_presolve` certificate runs first: certified
    infeasibility and certified-optimal clamps skip HiGHS entirely, and
    otherwise the implied bounds tighten the variable box (same feasible
    region; the returned vertex may differ from the cold solve's on
    degenerate optima — pinned by the golden-fingerprint suite).
    """
    n = targets.size
    m = len(arcs)
    num_vars = 2 * n
    ks = np.arange(n)

    x_bounds = np.stack([half_sizes, extent - half_sizes], axis=1)
    if warm_start and ids is not None:
        presolved = _warm_presolve(ids, targets, half_sizes, arcs, extent)
        if presolved is not None:
            verdict, payload = presolved
            if verdict == _INFEASIBLE:
                return None
            if verdict == "optimal":
                return payload
            lo, hi = payload
            x_bounds = np.stack([lo, hi], axis=1)

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
        (data, (rows, cols)), shape=(rhs.size, num_vars)
    ).tocsr()
    c = np.concatenate([np.zeros(n), np.ones(n)])
    bounds = np.concatenate(
        [x_bounds, np.tile([0.0, np.inf], (n, 1))]
    )

    result = linprog(c, A_ub=a_ub, b_ub=rhs, bounds=bounds, method="highs")
    if not result.success:
        return None
    return result.x[:n]


def _topological_order(
    n: int, arcs: AxisArcs, snapped: np.ndarray, ids: list
) -> np.ndarray:
    """Arc-respecting node order, by ``(snapped, id)`` among ready nodes.

    The ``(snapped, id)`` sort is already topological whenever the
    snapped coordinates respect every arc — the normal case, since
    rounding moves each centre by less than half a site — and is then
    returned directly from one ``lexsort``.  Only when rounding produced
    a coordinate tie against an arc direction does the Kahn fallback run;
    either way the arc still comes out forward instead of being silently
    flipped.
    """
    order = np.lexsort((ids, snapped))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    if np.all(rank[arcs.lo] < rank[arcs.hi]):
        return order

    indegree = np.zeros(n, dtype=np.int64)
    np.add.at(indegree, arcs.hi, 1)
    out_edges = [[] for _ in range(n)]
    for lo, hi in zip(arcs.lo.tolist(), arcs.hi.tolist()):
        out_edges[lo].append(hi)

    heap = [
        (snapped[k], ids[k], k) for k in range(n) if indegree[k] == 0
    ]
    heapq.heapify(heap)
    kahn = []
    while heap:
        _, _, k = heapq.heappop(heap)
        kahn.append(k)
        for succ in out_edges[k]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(heap, (snapped[succ], ids[succ], succ))
    return np.array(kahn, dtype=np.intp)


def _grouped_arcs(rank_key: np.ndarray, n: int, *columns) -> tuple:
    """Sort arc columns by a node-rank key and return per-rank boundaries.

    ``starts[r]:starts[r + 1]`` then slices every sorted column to the
    arcs whose key node has rank ``r`` — the grouping both repair sweeps
    use to reduce a node's arcs in one vectorized min/max.
    """
    by_rank = np.argsort(rank_key, kind="stable")
    key_sorted = rank_key[by_rank]
    starts = np.searchsorted(key_sorted, np.arange(n + 1))
    return (starts, *(column[by_rank] for column in columns))


def _snap_and_repair(
    ids: list,
    solution: np.ndarray,
    half_sizes: np.ndarray,
    arcs: AxisArcs,
    extent: float,
    lb: float,
) -> np.ndarray:
    """Snap to the site grid, then restore arc separations.

    A macro of width ``w`` sites is aligned when ``centre - w/2`` is a
    multiple of ``lb``.  Upper limits are propagated backwards through
    the arc DAG from the border, then one forward sweep pushes each node
    up to its predecessors' separations and clamps it to its limit — so a
    node is never moved below a bound that was already restored.  Both
    steps preserve grid alignment because separations and borders are
    integral in ``lb``.  Each node's arc reduction is one vectorized
    min/max over its grouped arc slice (exact — no accumulation order).
    """
    n = solution.size
    snapped = np.rint((solution - half_sizes) / lb) * lb + half_sizes

    order = _topological_order(n, arcs, snapped, ids)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)

    out_starts, out_hi, out_sep = _grouped_arcs(
        rank[arcs.lo], n, arcs.hi, arcs.sep
    )
    in_starts, in_lo, in_sep = _grouped_arcs(
        rank[arcs.hi], n, arcs.lo, arcs.sep
    )

    hi_limit = extent - half_sizes
    for r in range(n - 1, -1, -1):
        lo_arc, hi_arc = out_starts[r], out_starts[r + 1]
        if lo_arc == hi_arc:
            continue
        node = order[r]
        head_limit = (
            hi_limit[out_hi[lo_arc:hi_arc]] - out_sep[lo_arc:hi_arc]
        ).min()
        hi_limit[node] = min(hi_limit[node], head_limit)

    for r in range(n):
        node = order[r]
        lo_arc, hi_arc = in_starts[r], in_starts[r + 1]
        lo_bound = half_sizes[node]
        if lo_arc != hi_arc:
            pred_bound = (
                snapped[in_lo[lo_arc:hi_arc]] + in_sep[lo_arc:hi_arc]
            ).max()
            lo_bound = max(lo_bound, pred_bound)
        snapped[node] = min(max(snapped[node], lo_bound), hi_limit[node])
    return snapped


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
    reduce_arcs: bool = True,
    warm_start: bool = True,
) -> MacroLegalizationResult:
    """Legalize macros with the given extra spacing; positions unchanged on failure.

    This is the classical macro legalizer when ``spacing == 0`` and the
    building block of the quantum qubit legalizer otherwise.
    ``reduce_arcs`` (default on) runs the transitive-reduction pass over
    both constraint graphs before the solve — the same feasible region
    from (typically far) fewer LP rows.  ``warm_start`` (default on)
    runs the :func:`_warm_presolve` certificate per axis: certified
    infeasibility fast-fails a relaxation-retry attempt without touching
    HiGHS, a certified-optimal clamp of the targets skips the solve, and
    otherwise the implied bounds tighten the variable box.  Both knobs
    preserve the feasible region exactly; the particular optimum HiGHS
    reports may shift on degenerate optima, which the committed
    golden-fingerprint suite (``tests/golden/``) pins deliberately.
    Pass ``reduce_arcs=False, warm_start=False`` for the historical
    cold full-graph solve (the parity-suite oracle).
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
    if reduce_arcs:
        h_arcs = transitive_reduction(
            h_arcs, n, half_sorted[:, 0], spacing
        )
        v_arcs = transitive_reduction(
            v_arcs, n, half_sorted[:, 1], spacing
        )
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

    sol_x = _solve_axis(
        h_arcs, targets[:, 0], half[:, 0], grid.width,
        ids=indices, warm_start=warm_start,
    )
    if sol_x is None:
        return failure()
    sol_y = _solve_axis(
        v_arcs, targets[:, 1], half[:, 1], grid.height,
        ids=indices, warm_start=warm_start,
    )
    if sol_y is None:
        return failure()

    sol_x = _snap_and_repair(
        indices, sol_x, half[:, 0], h_arcs, grid.width, grid.lb
    )
    sol_y = _snap_and_repair(
        indices, sol_y, half[:, 1], v_arcs, grid.height, grid.lb
    )
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
