"""Count resonator crossings (the ``X`` metric of Fig. 9 / Table III).

Each resonator must electrically connect qubit_i → its reserved wire
area → qubit_j, with all of its block clusters joined up.  We model the
connection as its trace (:mod:`repro.netlist.traces`): the minimum
spanning tree over terminal sets — each qubit pad's 12 boundary points
and each cluster's block centres — whose straight segments join two
sets at their closest cross pair, the shortest trace a router would
lay.  A crossing (airbridge) is charged whenever

* a trace segment passes **over another resonator's reserved block**
  (each distinct foreign block bridged counts once per resonator), or
* two different resonators' trace segments **properly intersect** in free
  space (counted once per intersection).

Unified resonators sitting snug between their qubits have short two-hop
traces that rarely bridge anything; layouts that scatter a resonator into
distant clusters must chord across the congested pocket that caused the
split — over exactly the foreign blocks that filled it (paper Section
II-B).  Intersections *at* a shared qubit endpoint are not counted — two
couplers legitimately meet at their common qubit pad.

Hot-path notes: the bridged-block walk samples every trace in one batched
pass (:func:`~repro.geometry.segments.expand_samples`) and gathers the
BinGrid's flat occupancy arrays once, and :func:`count_crossings` accepts
precomputed ``traces`` so a caller that re-scores one layout many times
(the detailed placer) never rebuilds the MST traces.  Trace-pair
intersection tests are pruned with bounding boxes — disjoint boxes cannot
properly intersect, so pruning is exact — and the candidate pairs are the
touching-or-overlapping bboxes that :func:`~repro.geometry.near_pairs`
finds at cutoff 0 (:func:`_candidate_pairs`), the same column-group scan
the legality, spacing and qubit-hotspot scans use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry import near_pairs
from repro.geometry.segments import expand_samples, proper_crossings_mask
from repro.legalization.bins import KIND_BLOCK, BinGrid
from repro.netlist.netlist import QuantumNetlist
from repro.netlist.traces import build_traces


@dataclass
class CrossingReport:
    """Crossing analysis of one layout.

    ``bridged_blocks`` holds **sorted lists** of bridged foreign block
    ids, so consumers that fold over them (the Eq. 7 fidelity product)
    see the same order in every process — set iteration order would vary
    with per-process string hash randomization, which matters once
    layouts are evaluated in worker pools.
    """

    per_resonator: dict = field(default_factory=dict)
    pair_crossings: dict = field(default_factory=dict)
    bridged_blocks: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Layout-level ``X``: block bridges + trace intersections."""
        return sum(len(v) for v in self.bridged_blocks.values()) + sum(
            self.pair_crossings.values()
        )


def trace_bbox(trace: list) -> tuple:
    """``(xlo, ylo, xhi, yhi)`` bounding box of a trace (None when empty)."""
    if not trace:
        return None
    xs = [p[0] for seg in trace for p in seg]
    ys = [p[1] for seg in trace for p in seg]
    return (min(xs), min(ys), max(xs), max(ys))


def _candidate_pairs(keys: list, bboxes: dict) -> list:
    """Sorted key pairs whose trace bboxes overlap or touch.

    Exactly the pairs an all-pairs disjointness filter (``a.xhi < b.xlo``
    or the mirror, likewise in y) would keep: :func:`near_pairs` at
    cutoff 0 keeps a pair iff ``max(lo) <= min(hi)`` on both axes, which
    for ordered bboxes is the filter's negation.  Empty (``None``) bboxes
    never overlap.
    """
    present = sorted(key for key in keys if bboxes[key] is not None)
    boxes = np.array([bboxes[key] for key in present]).reshape(-1, 4)
    pairs = near_pairs(boxes[:, :2], boxes[:, 2:], 0.0).tolist()
    return [(present[i], present[j]) for i, j in pairs]


def _bridged_blocks(traces: dict, keys: list, bins: BinGrid) -> dict:
    """``{key: sorted foreign block ids}`` each trace passes over.

    Segments are sampled at 0.45 ``lb`` steps, fine enough that no unit
    site a segment traverses is skipped; out-of-grid samples are dropped.
    Every trace's samples are expanded, classified and deduplicated in
    one pass: a sample bridges the block under it unless the block is
    the trace's own resonator's, and ``np.unique`` over (trace, owner)
    codes leaves each bridged block once per trace.
    """
    grid = bins.grid
    lb = grid.lb
    segments = []
    for index, key in enumerate(keys):
        for (x1, y1), (x2, y2) in traces[key]:
            length = ((x2 - x1) ** 2 + (y2 - y1) ** 2) ** 0.5
            steps = max(1, int(length / (0.45 * lb)))
            segments.append((x1, y1, x2, y2, length, steps, index))
    bridged = {key: [] for key in keys}
    if not segments:
        return bridged
    x, y, _, trace_idx = expand_samples(segments)
    col = np.floor_divide(x, lb).astype(np.int64)
    row = np.floor_divide(y, lb).astype(np.int64)
    ok = (col >= 0) & (col < grid.cols) & (row >= 0) & (row < grid.rows)
    sites = col[ok] * grid.rows + row[ok]
    trace_idx = trace_idx[ok]
    own = np.array(
        [bins.res_key_index(key) for key in keys], dtype=np.int64
    )[trace_idx]
    foreign = (bins.kind_flat[sites] == KIND_BLOCK) & (
        (own < 0) | (bins.res_idx_flat[sites] != own)
    )
    owners = bins.owners
    num_owners = len(owners)
    codes = np.unique(
        trace_idx[foreign] * num_owners + bins.owner_idx_flat[sites][foreign]
    )
    for code in codes.tolist():
        bridged[keys[code // num_owners]].append(owners[code % num_owners])
    for blocks in bridged.values():
        blocks.sort()
    return bridged


def _pair_intersection_counts(traces: dict, pairs: list) -> dict:
    """``{pair: intersections}`` for all candidate pairs in one pass.

    Every trace's segments are stacked once; each pair contributes its
    full segment cross product as flat index arrays (first trace outer,
    second inner — the scalar loop order), and one
    :func:`~repro.geometry.segments.proper_crossings_mask` call tests all
    pairs' segment combinations together.  Per-pair counts come from a
    ``bincount`` over the surviving rows, so each count equals the
    scalar :func:`~repro.geometry.segments.count_pairwise_crossings`
    for that pair exactly.
    """
    if not pairs:
        return {}
    keys = sorted({key for pair in pairs for key in pair})
    seg_start = {}
    firsts = []
    seconds = []
    total = 0
    for key in keys:
        trace = traces[key]
        seg_start[key] = total
        for a, b in trace:
            firsts.append(a)
            seconds.append(b)
        total += len(trace)
    e1 = np.asarray(firsts, dtype=np.float64).reshape(total, 2)
    e2 = np.asarray(seconds, dtype=np.float64).reshape(total, 2)

    num_a = np.array([len(traces[a]) for a, _ in pairs], dtype=np.intp)
    num_b = np.array([len(traces[b]) for _, b in pairs], dtype=np.intp)
    start_a = np.array([seg_start[a] for a, _ in pairs], dtype=np.intp)
    start_b = np.array([seg_start[b] for _, b in pairs], dtype=np.intp)
    rows_per_pair = num_a * num_b
    offsets = np.concatenate([[0], np.cumsum(rows_per_pair)])
    rows = int(offsets[-1])
    if rows == 0:
        return {pair: 0 for pair in pairs}
    pair_id = np.repeat(np.arange(len(pairs), dtype=np.intp), rows_per_pair)
    local = np.arange(rows, dtype=np.intp) - offsets[pair_id]
    ai = start_a[pair_id] + local // num_b[pair_id]
    bi = start_b[pair_id] + local % num_b[pair_id]
    mask = proper_crossings_mask(e1[ai], e2[ai], e1[bi], e2[bi])
    counts = np.bincount(pair_id[mask], minlength=len(pairs))
    return {pair: int(count) for pair, count in zip(pairs, counts)}


def count_crossings(
    netlist: QuantumNetlist, bins: BinGrid, traces: dict = None
) -> CrossingReport:
    """Crossing report for the whole layout.

    ``traces`` optionally supplies the layout's precomputed MST traces
    (as returned by :func:`~repro.netlist.traces.build_traces`).
    Candidate intersection pairs come from :func:`_candidate_pairs`,
    evaluated in sorted-pair order so the report's dict iteration order
    matches the historical all-pairs scan.
    """
    if traces is None:
        traces = build_traces(netlist, bins.grid.lb)
    keys = sorted(traces)
    report = CrossingReport()
    report.bridged_blocks = _bridged_blocks(traces, keys, bins)
    per_res = {key: len(report.bridged_blocks[key]) for key in keys}
    bboxes = {key: trace_bbox(traces[key]) for key in keys}
    pairs = _candidate_pairs(keys, bboxes)
    pair_intersections = _pair_intersection_counts(traces, pairs)
    for key_a, key_b in pairs:
        count = pair_intersections[(key_a, key_b)]
        if count:
            report.pair_crossings[(key_a, key_b)] = count
            per_res[key_a] += count
            per_res[key_b] += count
    report.per_resonator = per_res
    return report
