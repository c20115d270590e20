"""Parity: the array-assembled qubit LP equals the scalar reference.

References are faithful transcriptions of the original scalar kernels:
the pairwise constraint-graph loop and the per-row LP assembly.  The
vectorized implementations must produce the same arc lists and the same
LP (same rows, columns and bounds, hence HiGHS returns the same vertex,
bit for bit).  The snap-and-repair sweep is compared against a scalar
dict-based transcription of the *repaired* algorithm (backward limit
propagation + one clamped forward sweep) — the historical
forward/backward pair is intentionally not the oracle because it is the
bug the repair fixes (see ``test_macro_lp.py``'s tight-border
regression); where the historical pass was sound the repaired sweep is
shown to be sound too, never farther from the snapped sites, and equal
to it wherever its backward pass moved nothing.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from repro.geometry import Rect, SiteGrid
from repro.legalization import legalize_macros
from repro.legalization.constraint_graph import (
    Arc,
    AxisArcs,
    build_constraint_arrays,
    build_constraint_graphs,
    transitive_reduction,
)
from repro.legalization.macro_lp import _snap_and_repair, _solve_axis


def reference_build_constraint_graphs(indices, positions, sizes, spacing):
    """The original scalar pair loop, verbatim."""
    h_arcs = []
    v_arcs = []
    ordered = sorted(indices)
    for a_pos, i in enumerate(ordered):
        xi, yi = positions[i]
        wi, hi = sizes[i]
        for j in ordered[a_pos + 1 :]:
            xj, yj = positions[j]
            wj, hj = sizes[j]
            sep_x = (wi + wj) / 2.0 + spacing
            sep_y = (hi + hj) / 2.0 + spacing
            ratio_x = abs(xi - xj) / sep_x
            ratio_y = abs(yi - yj) / sep_y
            if ratio_x >= ratio_y:
                lo, hi_ = (i, j) if xi <= xj else (j, i)
                h_arcs.append(Arc(lo, hi_, sep_x))
            else:
                lo, hi_ = (i, j) if yi <= yj else (j, i)
                v_arcs.append(Arc(lo, hi_, sep_y))
    return (h_arcs, v_arcs)


def reference_solve_axis(ids, targets, half_sizes, arcs, extent):
    """The original scalar per-row LP assembly, verbatim."""
    n = len(ids)
    pos_of = {node: k for k, node in enumerate(ids)}
    num_vars = 2 * n

    rows, cols, data, rhs = [], [], [], []

    def add_row(entries, bound):
        row = len(rhs)
        for col, coeff in entries:
            rows.append(row)
            cols.append(col)
            data.append(coeff)
        rhs.append(bound)

    for arc in arcs:
        lo, hi = pos_of[arc.lo], pos_of[arc.hi]
        add_row([(lo, 1.0), (hi, -1.0)], -arc.separation)
    for node in ids:
        k = pos_of[node]
        add_row([(k, 1.0), (n + k, -1.0)], targets[node])
        add_row([(k, -1.0), (n + k, -1.0)], -targets[node])

    a_ub = sparse.coo_matrix(
        (data, (rows, cols)), shape=(len(rhs), num_vars)
    ).tocsr()
    c = np.concatenate([np.zeros(n), np.ones(n)])
    bounds = [
        (half_sizes[node], extent - half_sizes[node]) for node in ids
    ] + [(0.0, None)] * n
    result = linprog(
        c, A_ub=a_ub, b_ub=np.array(rhs), bounds=bounds, method="highs"
    )
    if not result.success:
        return None
    return {node: float(result.x[pos_of[node]]) for node in ids}


def reference_snap_and_repair(ids, solution, half_sizes, arcs, extent, lb):
    """Scalar dict transcription of the bound-respecting repair sweep.

    Same semantics as the vectorized ``_snap_and_repair``: nodes are
    processed in arc-respecting (topological) order, ready nodes by
    ``(snapped, id)``; upper limits propagate backwards from the border,
    then one forward sweep pushes up and clamps.
    """
    import heapq

    snapped = {
        node: round((solution[node] - half_sizes[node]) / lb) * lb
        + half_sizes[node]
        for node in ids
    }
    indegree = {node: 0 for node in ids}
    out_edges = {node: [] for node in ids}
    in_edges = {node: [] for node in ids}
    for arc in arcs:
        indegree[arc.hi] += 1
        out_edges[arc.lo].append(arc)
        in_edges[arc.hi].append(arc)
    heap = [
        (snapped[node], node) for node in ids if indegree[node] == 0
    ]
    heapq.heapify(heap)
    order = []
    while heap:
        _, node = heapq.heappop(heap)
        order.append(node)
        for arc in out_edges[node]:
            indegree[arc.hi] -= 1
            if indegree[arc.hi] == 0:
                heapq.heappush(heap, (snapped[arc.hi], arc.hi))

    hi_limit = {node: extent - half_sizes[node] for node in ids}
    for node in reversed(order):
        for arc in out_edges[node]:
            hi_limit[node] = min(
                hi_limit[node], hi_limit[arc.hi] - arc.separation
            )
    for node in order:
        lo_bound = half_sizes[node]
        for arc in in_edges[node]:
            lo_bound = max(lo_bound, snapped[arc.lo] + arc.separation)
        snapped[node] = min(max(snapped[node], lo_bound), hi_limit[node])
    return snapped


def reference_historical_snap_and_repair(
    ids, solution, half_sizes, arcs, extent, lb
):
    """The original forward/backward repair, verbatim (the buggy oracle)."""
    snapped = {}
    for node in ids:
        half = half_sizes[node]
        snapped[node] = round((solution[node] - half) / lb) * lb + half

    order = sorted(ids, key=lambda node: (snapped[node], node))
    rank = {node: k for k, node in enumerate(order)}
    incoming = {node: [] for node in ids}
    outgoing = {node: [] for node in ids}
    for arc in arcs:
        lo, hi = arc.lo, arc.hi
        if rank[lo] > rank[hi]:
            lo, hi = hi, lo
        incoming[hi].append(Arc(lo, hi, arc.separation))
        outgoing[lo].append(Arc(lo, hi, arc.separation))

    for node in order:
        lo_bound = half_sizes[node]
        for arc in incoming[node]:
            lo_bound = max(lo_bound, snapped[arc.lo] + arc.separation)
        snapped[node] = max(snapped[node], lo_bound)
    for node in reversed(order):
        hi_bound = extent - half_sizes[node]
        for arc in outgoing[node]:
            hi_bound = min(hi_bound, snapped[arc.hi] - arc.separation)
        snapped[node] = min(snapped[node], hi_bound)
    return snapped


coord = st.floats(0.5, 29.5, allow_nan=False, allow_infinity=False)
size = st.sampled_from([1.0, 2.0, 3.0])
spacing_st = st.sampled_from([0.0, 1.0, 2.0])


@st.composite
def instances(draw, max_macros=7):
    centers = draw(
        st.lists(
            st.tuples(coord, coord),
            min_size=1,
            max_size=max_macros,
            unique=True,
        )
    )
    indices = list(range(len(centers)))
    positions = {i: centers[i] for i in indices}
    sizes = {
        i: (draw(size, label=f"w{i}"), draw(size, label=f"h{i}"))
        for i in indices
    }
    return (indices, positions, sizes, draw(spacing_st))


@settings(max_examples=80, deadline=None)
@given(inst=instances(max_macros=9))
def test_constraint_arrays_match_scalar_reference(inst):
    indices, positions, sizes, spacing = inst
    want = reference_build_constraint_graphs(indices, positions, sizes, spacing)
    assert build_constraint_graphs(indices, positions, sizes, spacing) == want


@settings(max_examples=25, deadline=None)
@given(inst=instances())
def test_solve_axis_matches_scalar_reference(inst):
    indices, positions, sizes, spacing = inst
    grid = SiteGrid(30, 30)
    h_ref, v_ref = reference_build_constraint_graphs(
        indices, positions, sizes, spacing
    )
    _, h_axis, v_axis = build_constraint_arrays(
        indices, positions, sizes, spacing
    )
    for arcs_ref, axis, coord_pos, extent in (
        (h_ref, h_axis, 0, grid.width),
        (v_ref, v_axis, 1, grid.height),
    ):
        targets = {i: positions[i][coord_pos] for i in indices}
        halves = {i: sizes[i][coord_pos] / 2.0 for i in indices}
        want = reference_solve_axis(indices, targets, halves, arcs_ref, extent)
        # The arrays index sorted ids; remap onto the reference id order.
        ordered = sorted(indices)
        pos_in_input = {node: k for k, node in enumerate(indices)}
        remap = np.array([pos_in_input[node] for node in ordered])
        axis = type(axis)(remap[axis.lo], remap[axis.hi], axis.sep)
        got = _solve_axis(
            axis,
            np.array([targets[i] for i in indices]),
            np.array([halves[i] for i in indices]),
            extent,
        )
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert {i: float(got[k]) for k, i in enumerate(indices)} == want


@settings(max_examples=60, deadline=None)
@given(inst=instances(), extent=st.sampled_from([12.0, 20.0, 30.0]))
@example(
    inst=(
        [0, 1, 2, 3, 4, 5, 6],
        {
            0: (1.0, 2.0),
            1: (25.75, 2.0),
            2: (1.0, 1.0),
            3: (1.0, 3.0),
            4: (2.0, 1.0),
            5: (26.0, 2.0),
            6: (27.0, 1.0),
        },
        {i: ((2.0, 1.0) if i in (1, 5) else (1.0, 1.0)) for i in range(7)},
        2.0,
    ),
    extent=30.0,
)
def test_snap_and_repair_matches_scalar_reference(inst, extent):
    indices, positions, sizes, spacing = inst
    h_ref, _ = reference_build_constraint_graphs(
        indices, positions, sizes, spacing
    )
    _, h_axis, _ = build_constraint_arrays(indices, positions, sizes, spacing)
    pos_in_input = {node: k for k, node in enumerate(indices)}
    remap = np.array([pos_in_input[node] for node in sorted(indices)])
    h_axis = type(h_axis)(remap[h_axis.lo], remap[h_axis.hi], h_axis.sep)

    solution = {i: positions[i][0] for i in indices}
    halves = {i: sizes[i][0] / 2.0 for i in indices}
    want = reference_snap_and_repair(
        indices, solution, halves, h_ref, extent, 1.0
    )
    got = _snap_and_repair(
        indices,
        np.array([solution[i] for i in indices]),
        np.array([halves[i] for i in indices]),
        h_axis,
        extent,
        1.0,
    )
    assert {i: float(got[k]) for k, i in enumerate(indices)} == want

    # Where the historical pass produced a sound answer, the repaired
    # sweep's answer is sound too, nowhere to the right of it and no
    # farther from any qubit's snapped site, and the two agree exactly
    # where the historical backward pass moved nothing.  They can
    # differ: in the pinned example the historical backward pass pulls
    # qubits 1 and 5 back from the border but leaves qubit 6 at 29.5,
    # where qubit 1's over-push sent it, while the repaired sweep,
    # which clamps qubit 1 first, places qubit 6 at 28.5, nearer its
    # snapped 26.5.
    historical = reference_historical_snap_and_repair(
        indices, solution, halves, h_ref, extent, 1.0
    )

    def sound(placed):
        return all(
            placed[a.hi] - placed[a.lo] >= a.separation - 1e-9
            for a in h_ref
        ) and all(
            halves[i] - 1e-9 <= placed[i] <= extent - halves[i] + 1e-9
            for i in indices
        )

    if sound(historical):
        assert sound(want)
        for i in indices:
            snapped = round(solution[i] - halves[i]) + halves[i]
            assert want[i] <= historical[i] + 1e-9
            assert abs(want[i] - snapped) <= abs(historical[i] - snapped) + 1e-9
        # With no right border the backward pass is the identity, so an
        # infinite extent yields the forward push alone.
        forward = reference_historical_snap_and_repair(
            indices, solution, halves, h_ref, math.inf, 1.0
        )
        if historical == forward:
            assert want == historical


@settings(max_examples=25, deadline=None)
@given(inst=instances())
def test_legalize_macros_matches_reference_pipeline(inst):
    indices, positions, sizes, spacing = inst
    grid = SiteGrid(30, 30)
    # The cold full-graph path is the scalar oracle; the default
    # warm-started / arc-reduced path is pinned by tests/golden/ and the
    # objective-equality suite in test_macro_lp.py instead.
    result = legalize_macros(
        indices, positions, sizes, grid, spacing,
        reduce_arcs=False, warm_start=False,
    )

    h_ref, v_ref = reference_build_constraint_graphs(
        indices, positions, sizes, spacing
    )
    half_w = {i: sizes[i][0] / 2.0 for i in indices}
    half_h = {i: sizes[i][1] / 2.0 for i in indices}
    sol_x = reference_solve_axis(
        indices, {i: positions[i][0] for i in indices}, half_w, h_ref, grid.width
    )
    sol_y = reference_solve_axis(
        indices, {i: positions[i][1] for i in indices}, half_h, v_ref, grid.height
    )
    if sol_x is None or sol_y is None:
        assert not result.feasible
        assert result.positions == positions
        return
    sol_x = reference_snap_and_repair(
        indices, sol_x, half_w, h_ref, grid.width, grid.lb
    )
    sol_y = reference_snap_and_repair(
        indices, sol_y, half_h, v_ref, grid.height, grid.lb
    )
    feasible = all(
        sol_x[a.hi] - sol_x[a.lo] >= a.separation - 1e-6 for a in h_ref
    ) and all(
        sol_y[a.hi] - sol_y[a.lo] >= a.separation - 1e-6 for a in v_ref
    )
    assert result.feasible == feasible
    if feasible:
        assert result.positions == {
            i: (sol_x[i], sol_y[i]) for i in indices
        }


def test_single_macro_degenerate():
    grid = SiteGrid(10, 10)
    result = legalize_macros([3], {3: (4.2, 5.9)}, {3: (3.0, 3.0)}, grid)
    assert result.feasible
    ref = reference_snap_and_repair(
        [3], {3: 4.2}, {3: 1.5}, [], grid.width, grid.lb
    )
    assert result.positions[3][0] == ref[3]


@settings(max_examples=25, deadline=None)
@given(inst=instances())
def test_transitive_reduction_preserves_legality(inst):
    indices, positions, sizes, spacing = inst
    grid = SiteGrid(30, 30)
    full = legalize_macros(
        indices, positions, sizes, grid, spacing,
        reduce_arcs=False, warm_start=False,
    )
    reduced = legalize_macros(
        indices, positions, sizes, grid, spacing, reduce_arcs=True
    )
    # Same feasible region: the reduced LP succeeds iff the full one does,
    # and its solution is legal (positions may differ on degenerate optima).
    assert reduced.feasible == full.feasible
    if not reduced.feasible:
        return
    border = grid.border
    rects = {
        i: Rect(reduced.positions[i][0], reduced.positions[i][1], *sizes[i])
        for i in indices
    }
    for i in indices:
        assert rects[i].inside(border, tol=1e-6)
    for a_pos, i in enumerate(indices):
        for j in indices[a_pos + 1 :]:
            assert not rects[i].inflated(spacing / 2.0).overlaps(
                rects[j].inflated(spacing / 2.0), tol=1e-6
            ), (i, j)


@settings(max_examples=40, deadline=None)
@given(inst=instances(max_macros=9))
def test_transitive_reduction_is_sound_and_minimalish(inst):
    indices, positions, sizes, spacing = inst
    n = len(indices)
    ordered, h_axis, v_axis = build_constraint_arrays(
        indices, positions, sizes, spacing
    )
    half = np.array([sizes[i] for i in ordered], dtype=np.float64) / 2.0
    for axis, half_sizes in ((h_axis, half[:, 0]), (v_axis, half[:, 1])):
        reduced = transitive_reduction(axis, n, half_sizes, spacing)
        assert len(reduced) <= len(axis)
        kept = set(
            zip(reduced.lo.tolist(), reduced.hi.tolist(), reduced.sep.tolist())
        )
        # Every dropped arc is implied by a path of kept arcs.
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        for lo, hi, sep in kept:
            graph.add_edge(lo, hi, weight=sep)
        longest = dict(nx.all_pairs_bellman_ford_path_length(
            nx.DiGraph(
                [(u, v, {"weight": -w["weight"]}) for u, v, w in graph.edges(data=True)]
            )
        )) if graph.number_of_edges() else {}
        for lo, hi, sep in zip(
            axis.lo.tolist(), axis.hi.tolist(), axis.sep.tolist()
        ):
            if (lo, hi, sep) in kept:
                continue
            assert lo in longest and hi in longest[lo]
            assert -longest[lo][hi] >= sep - 1e-9


def test_transitive_reduction_keeps_non_additive_axis():
    """Separations that don't decompose as half + half + spacing come back
    unreduced: the reachability certificate does not hold for them."""
    # 0 → 1 → 2 forces only 2, less than the direct arc's 5.
    axis = AxisArcs(
        np.array([0, 1, 0]), np.array([1, 2, 2]), np.array([1.0, 1.0, 5.0])
    )
    reduced = transitive_reduction(axis, 3, np.array([0.5, 0.5, 0.5]), 0.0)
    assert reduced.lo.tolist() == [0, 1, 0]
    assert reduced.hi.tolist() == [1, 2, 2]
    assert reduced.sep.tolist() == [1.0, 1.0, 5.0]
