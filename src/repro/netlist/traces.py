"""Resonator connection traces: the exposed wiring between clusters.

A resonator electrically joins qubit_i → its reserved block clusters →
qubit_j.  The shortest trace a router would lay is the minimum spanning
tree over the terminal *sets* (each cluster's block centres plus each
qubit pad's boundary points), with tree edges connecting the closest
cross pair — so a cluster touching its qubit contributes a near-zero
segment rather than a chord to its centroid.

The Prim build is array-backed: all terminal points are stacked once,
every squared cross distance comes from one broadcast NumPy pass, and
each growth step is a blocked min-reduction over the set-pair distance
matrix.  Tie-breaking is bit-identical to the historical scalar scan
(first minimum in tree-insertion × candidate order, then first minimal
point pair in row-major order), and the returned segment endpoints are
the *original* input tuples, so consumers see exactly the scalar
kernel's output.

Both the crossing counter (:mod:`repro.routing.crossings`) and the
trace-exposure hotspot model (:mod:`repro.frequency.hotspots`) consume
these traces, built for the whole layout by :func:`build_traces`.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.clusters import block_cluster_map, block_clusters
from repro.netlist.netlist import QuantumNetlist


def mst_segments(terminal_sets: list) -> list:
    """Straight-segment MST over point sets (array Prim).

    Equivalent to the historical scalar Prim: grow from set 0, each step
    joining the tree to the out-set whose closest cross pair is nearest,
    scanning tree members in insertion order and out-sets in remaining
    input order with strict-less updates.  ``np.argmin`` returns the
    first flat minimum in row-major order, which is exactly that
    tie-break, so the produced segments are identical.
    """
    num_sets = len(terminal_sets)
    if num_sets < 2:
        return []

    sizes = [len(points) for points in terminal_sets]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    stacked = np.array(
        [point for points in terminal_sets for point in points],
        dtype=np.float64,
    )
    dx = stacked[:, 0][:, None] - stacked[:, 0][None, :]
    dy = stacked[:, 1][:, None] - stacked[:, 1][None, :]
    d2 = dx * dx + dy * dy

    # Blocked min-reduction: the closest cross distance for every set
    # pair in two reduceat passes (exact — float min is order-free).
    # The terminal sets are tiny, so the Prim scan below runs over the
    # S×S Python list; the argmin *pair* is only resolved for the S-1
    # set pairs that actually join the tree.
    col_min = np.minimum.reduceat(d2, offsets[:-1], axis=1)
    pair_min = np.minimum.reduceat(col_min, offsets[:-1], axis=0).tolist()

    in_tree = [0]
    out = list(range(1, num_sets))
    segments = []
    while out:
        best = None
        for i in in_tree:
            row = pair_min[i]
            for j in out:
                value = row[j]
                if best is None or value < best[0]:
                    best = (value, i, j)
        _, i, j = best
        block = d2[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]]
        ai, bj = divmod(int(np.argmin(block)), block.shape[1])
        segments.append((terminal_sets[i][ai], terminal_sets[j][bj]))
        in_tree.append(j)
        out.remove(j)
    return segments


def qubit_boundary(qubit, samples_per_side: int = 3) -> list:
    """Attachment points along a qubit pad's boundary."""
    rect = qubit.rect
    points = []
    for k in range(samples_per_side):
        t = (k + 0.5) / samples_per_side
        x = rect.xlo + t * rect.w
        y = rect.ylo + t * rect.h
        points.extend(
            [(x, rect.ylo), (x, rect.yhi), (rect.xlo, y), (rect.xhi, y)]
        )
    return points


def resonator_trace(
    netlist: QuantumNetlist, resonator, lb: float = 1.0, clusters: list = None
) -> list:
    """The straight-segment connection tree of one resonator.

    ``clusters`` lets a caller that already ran the batched
    :func:`~repro.netlist.clusters.block_cluster_map` pass this
    resonator's clusters instead of recomputing them (the cluster pass is
    about half of a cold trace build).
    """
    if clusters is None:
        clusters = block_clusters(resonator, lb)
    return _trace(
        qubit_boundary(netlist.qubit(resonator.qi)),
        qubit_boundary(netlist.qubit(resonator.qj)),
        clusters,
    )


def build_traces(netlist: QuantumNetlist, lb: float, clusters: dict = None) -> dict:
    """``{resonator key: MST trace}`` for the whole layout.

    Clusters for all resonators come from one batched
    :func:`~repro.netlist.clusters.block_cluster_map` pass (the cluster
    extraction is about half of a cold trace build); ``clusters`` lets a
    caller that already ran that pass at ``lb`` hand its map in.  Each
    qubit's boundary points are computed once, not once per resonator
    end.
    """
    if clusters is None:
        clusters = block_cluster_map(netlist.resonators, lb)
    boundary = {q.index: qubit_boundary(q) for q in netlist.qubits}
    return {
        r.key: _trace(boundary[r.qi], boundary[r.qj], clusters[r.key])
        for r in netlist.resonators
    }


def _trace(boundary_i: list, boundary_j: list, clusters: list) -> list:
    """The MST over a resonator's two qubit boundaries and its clusters'
    block centres, in that set order."""
    terminal_sets = [boundary_i, boundary_j]
    for cluster in clusters:
        terminal_sets.append([(b.x, b.y) for b in cluster])
    return mst_segments(terminal_sets)
