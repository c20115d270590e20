"""Resonator connection traces: the exposed wiring between clusters.

A resonator electrically joins qubit_i → its reserved block clusters →
qubit_j.  The shortest trace a router would lay is the minimum spanning
tree over the terminal *sets* (each cluster's block centres plus each
qubit pad's boundary points), with tree edges connecting the closest
cross pair — so a cluster touching its qubit contributes a near-zero
segment rather than a chord to its centroid.

One batched kernel builds every tree (:func:`_prim_joins`).  All terminal
points sit in two flat coordinate arrays; every set pair of every tree
gets its closest squared distance and its first row-major argmin in both
orientations from one broadcast gather per ``(|A|, |B|)`` shape group,
in bounded chunks; then each tree runs its small S×S Prim scan on plain
lists.  Tie-breaking is bit-identical to the historical scalar scan
(first minimum in tree-insertion × candidate order, then first minimal
point pair in row-major order), so consumers see exactly the scalar
kernel's output.  :func:`build_traces` runs the kernel once for the
whole layout; :func:`mst_segments`, its one-tree case, returns the
*original* input tuples as segment endpoints.

Both the crossing counter (:mod:`repro.routing.crossings`) and the
trace-exposure hotspot model (:mod:`repro.frequency.hotspots`) consume
these traces, built for the whole layout by :func:`build_traces`.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.clusters import block_cluster_map, block_clusters
from repro.netlist.netlist import QuantumNetlist

#: Squared distances one gather materializes at most (a chunk of set
#: pairs of one shape); bounds the kernel's scratch memory.
_CHUNK_ENTRIES = 1 << 15


def _pair_table(num_sets: int) -> tuple:
    """The set pairs of a tree of ``num_sets`` sets: ``(lower, upper)``
    in row-major upper-triangle order, and ``slot[i][j]``, the position
    of pair ``{i, j}`` in that order."""
    pairs = [(i, j) for i in range(num_sets) for j in range(i + 1, num_sets)]
    slot = [[0] * num_sets for _ in range(num_sets)]
    for k, (i, j) in enumerate(pairs):
        slot[i][j] = slot[j][i] = k
    lower = np.array([i for i, _ in pairs], dtype=np.intp)
    upper = np.array([j for _, j in pairs], dtype=np.intp)
    return (lower, upper, slot)


def _closest_pairs(
    xs: np.ndarray,
    ys: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple:
    """Per set pair ``(lower, upper)`` (global set indices into the
    ``starts``/``sizes`` point ranges of ``xs``/``ys``): the closest
    squared distance, and the first row-major argmin with the lower set
    as rows (``forward``) and as columns (``backward``).

    Pairs of one ``(|A|, |B|)`` shape share one broadcast gather per
    chunk.  ``(xa - xb)²`` and ``(xb - xa)²`` are the same float, so one
    distance block serves both orientations.
    """
    largest = int(sizes.max())
    rows_of = sizes[lower]
    cols_of = sizes[upper]
    order = np.argsort(rows_of * (largest + 1) + cols_of, kind="stable")
    row_start = starts[lower]
    col_start = starts[upper]
    ramp = np.arange(largest)
    shapes = np.column_stack([rows_of[order], cols_of[order]])
    cuts = np.flatnonzero(np.any(shapes[1:] != shapes[:-1], axis=1)) + 1
    best = np.empty(lower.size, dtype=np.float64)
    forward = np.empty(lower.size, dtype=np.intp)
    backward = np.empty(lower.size, dtype=np.intp)
    bounds = [0, *cuts.tolist(), order.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows, cols = shapes[lo].tolist()
        step = max(1, _CHUNK_ENTRIES // (rows * cols))
        for at in range(lo, hi, step):
            pairs = order[at : min(at + step, hi)]
            ia = row_start[pairs][:, None] + ramp[:rows]
            ib = col_start[pairs][:, None] + ramp[:cols]
            d2 = xs[ia][:, :, None] - xs[ib][:, None, :]
            dy = ys[ia][:, :, None] - ys[ib][:, None, :]
            d2 *= d2
            dy *= dy
            d2 += dy
            flat = d2.reshape(pairs.size, rows * cols)
            first = flat.argmin(axis=1)
            best[pairs] = flat[np.arange(pairs.size), first]
            forward[pairs] = first
            backward[pairs] = (
                d2.transpose(0, 2, 1).reshape(pairs.size, rows * cols).argmin(axis=1)
            )
    return (best, forward, backward)


def _prim_joins(
    xs: np.ndarray, ys: np.ndarray, set_start: list, set_size: list, tree_sizes: list
) -> list:
    """Prim MST joins of many trees of point sets, in one batched pass.

    The trees' sets are consecutive ``(set_start, set_size)`` ranges of
    the flat coordinate arrays ``xs``/``ys``, ``tree_sizes[t]`` of them
    for tree ``t``.  Returns, per tree, its joins ``(i, a, j, b)``: tree
    set ``i`` joins out-set ``j`` at their ``a``-th and ``b``-th points.

    Each tree grows from set 0, joining at every step the out-set whose
    closest cross pair is nearest, scanning tree members in insertion
    order and out-sets in remaining input order with strict-less updates
    — the historical scalar Prim — and resolves a join's point pair as
    the first row-major argmin of the ``i``-rows × ``j``-columns block.
    """
    if not tree_sizes:
        return []
    sizes = np.asarray(tree_sizes, dtype=np.intp)
    tree_first = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    pair_base = np.concatenate([[0], np.cumsum(sizes * (sizes - 1) // 2)])
    lower = np.empty(int(pair_base[-1]), dtype=np.intp)
    upper = np.empty_like(lower)
    tables = {size: _pair_table(size) for size in sorted(set(tree_sizes))}
    for num_sets, (tree_lower, tree_upper, _) in tables.items():
        trees = np.flatnonzero(sizes == num_sets)
        slots = pair_base[trees][:, None] + np.arange(tree_lower.size)
        lower[slots] = tree_first[trees][:, None] + tree_lower
        upper[slots] = tree_first[trees][:, None] + tree_upper
    best, forward, backward = (
        values.tolist()
        for values in _closest_pairs(
            xs, ys, np.asarray(set_start), np.asarray(set_size), lower, upper
        )
    )

    joins_by_tree = []
    for num_sets, first, base in zip(
        tree_sizes, tree_first.tolist(), pair_base.tolist()
    ):
        slot = tables[num_sets][2]
        in_tree = [0]
        out = list(range(1, num_sets))
        joins = []
        while out:
            value = None
            for i in in_tree:
                row = slot[i]
                for j in out:
                    d2 = best[base + row[j]]
                    if value is None or d2 < value:
                        value, pick_i, pick_j = d2, i, j
            pair = base + slot[pick_i][pick_j]
            flat = forward[pair] if pick_i < pick_j else backward[pair]
            a, b = divmod(flat, set_size[first + pick_j])
            joins.append((pick_i, a, pick_j, b))
            in_tree.append(pick_j)
            out.remove(pick_j)
        joins_by_tree.append(joins)
    return joins_by_tree


def mst_segments(terminal_sets: list) -> list:
    """Straight-segment MST over point sets: the one-tree case of the
    batched Prim (:func:`_prim_joins`).

    Segment endpoints are the input point tuples themselves.
    """
    if len(terminal_sets) < 2:
        return []
    points = [point for points in terminal_sets for point in points]
    set_size = [len(points) for points in terminal_sets]
    set_start = np.concatenate([[0], np.cumsum(set_size)[:-1]]).tolist()
    xy = np.array(points, dtype=np.float64).reshape(len(points), 2)
    (joins,) = _prim_joins(
        xy[:, 0], xy[:, 1], set_start, set_size, [len(terminal_sets)]
    )
    return [
        (terminal_sets[i][a], terminal_sets[j][b]) for i, a, j, b in joins
    ]


def qubit_boundary(qubit, samples_per_side: int = 3) -> list:
    """Attachment points along a qubit pad's boundary."""
    rect = qubit.rect
    xlo, ylo, xhi, yhi = rect.xlo, rect.ylo, rect.xhi, rect.yhi
    points = []
    for k in range(samples_per_side):
        t = (k + 0.5) / samples_per_side
        x = xlo + t * rect.w
        y = ylo + t * rect.h
        points.extend([(x, ylo), (x, yhi), (xlo, y), (xhi, y)])
    return points


def resonator_trace(
    netlist: QuantumNetlist, resonator, lb: float = 1.0, clusters: list = None
) -> list:
    """The straight-segment connection tree of one resonator.

    ``clusters`` lets a caller that already ran the batched
    :func:`~repro.netlist.clusters.block_cluster_map` pass this
    resonator's clusters instead of recomputing them.
    """
    if clusters is None:
        clusters = block_clusters(resonator, lb)
    return _traces(netlist, [resonator], {resonator.key: clusters})[resonator.key]


def build_traces(netlist: QuantumNetlist, lb: float, clusters: dict = None) -> dict:
    """``{resonator key: MST trace}`` for the whole layout, in one
    :func:`_prim_joins` call.

    Clusters for all resonators come from one batched
    :func:`~repro.netlist.clusters.block_cluster_map` pass; ``clusters``
    lets a caller that already ran that pass at ``lb`` hand its map in.
    """
    if clusters is None:
        clusters = block_cluster_map(netlist.resonators, lb)
    return _traces(netlist, netlist.resonators, clusters)


def _traces(netlist: QuantumNetlist, resonators: list, clusters: dict) -> dict:
    """The traces of ``resonators``: each one's terminal sets are its two
    qubits' boundary points, computed once per qubit, and its clusters'
    block centres (``clusters`` maps its key to them), in that order."""
    xs = []
    ys = []
    boundary = {}
    keys = []
    terminal_sets = []
    set_start = []
    set_size = []
    tree_sizes = []
    for resonator in resonators:
        for index in (resonator.qi, resonator.qj):
            if index not in boundary:
                points = qubit_boundary(netlist.qubit(index))
                boundary[index] = (len(xs), points)
                xs += [x for x, _ in points]
                ys += [y for _, y in points]
        key = resonator.key
        start_i, points_i = boundary[resonator.qi]
        start_j, points_j = boundary[resonator.qj]
        found = clusters[key]
        set_start += [start_i, start_j]
        set_size += [len(points_i), len(points_j)]
        for cluster in found:
            set_start.append(len(xs))
            set_size.append(len(cluster))
            xs += [b.x for b in cluster]
            ys += [b.y for b in cluster]
        keys.append(key)
        terminal_sets.append((points_i, points_j, *found))
        tree_sizes.append(2 + len(found))

    joins_by_tree = _prim_joins(
        np.array(xs, dtype=np.float64),
        np.array(ys, dtype=np.float64),
        set_start,
        set_size,
        tree_sizes,
    )
    # Sets 0 and 1 hold boundary tuples, the others blocks, whose
    # centres become fresh ``(x, y)`` tuples.
    traces = {}
    for key, sets, joins in zip(keys, terminal_sets, joins_by_tree):
        trace = []
        for i, a, j, b in joins:
            pa = sets[i][a]
            pb = sets[j][b]
            trace.append(
                (pa if i < 2 else (pa.x, pa.y), pb if j < 2 else (pb.x, pb.y))
            )
        traces[key] = trace
    return traces
