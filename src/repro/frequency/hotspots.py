"""Frequency-hotspot metrics: Ph (Eq. 4), per-resonator He, and HQ.

A *hotspot* is spatial proximity between exposed, nearly-resonant
components.  Two component classes are exposed:

* **qubit pads** — qubit pairs closer than the interaction reach
  contribute ``adjacency(p_i, p_j) * decay(gap) * τ`` (the Eq. 4 terms);
* **resonator connection traces** — a resonator's wire blocks reserve
  *padded* area (Eq. 6 folds the padding into the block count), so block
  regions sitting side by side are already isolated; what is exposed is
  the connection trace joining qubit_i → clusters → qubit_j.  A unified,
  in-channel resonator has a near-zero-length exposed trace; a scattered
  one chords across foreign reservations.  Trace points within reach of a
  nearly-resonant *foreign* block contribute
  ``sample_length * decay(distance) * τ``.

``Ph`` is the contribution sum normalized by total component area, as a
percentage (Fig. 9 / Table III).  ``He`` is a resonator's share; ``HQ``
counts qubits in any qubit-qubit hotspot plus endpoints of resonators
with ``He > 0``.

Each evaluation works on arrays: the block raster the trace walk reads
is filled in one array pass over the netlist's blocks, the walk itself
is vectorized with an exactly-faithful scalar tail, and the total area
is summed from the component sizes, with no ``Rect`` per component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.frequency.proximity import DEFAULT_DELTA_C, tau
from repro.geometry import adjacency_length, gap_between, near_pairs, rect_bounds
from repro.geometry.segments import expand_samples
from repro.netlist.netlist import QuantumNetlist
from repro.netlist.traces import build_traces

#: Default interaction reach in layout units (site pitches).
DEFAULT_REACH = 2.0

#: Sampling step along trace segments, in units of lb.
_TRACE_STEP = 0.5


@dataclass(frozen=True)
class HotspotPair:
    """One interacting pair and its hotspot contribution.

    ``id_a`` / ``id_b`` are ``("q", index)`` for qubits or ``("e", key)``
    for resonators (trace-level aggregation).
    """

    id_a: tuple
    id_b: tuple
    adjacency: float
    gap: float
    tau_weight: float
    contribution: float


@dataclass
class HotspotReport:
    """Aggregate hotspot metrics for one layout."""

    pairs: list = field(default_factory=list)
    ph_percent: float = 0.0
    hq: int = 0
    per_resonator: dict = field(default_factory=dict)

    @property
    def num_pairs(self) -> int:
        """Number of interacting (nonzero-contribution) pairs."""
        return len(self.pairs)


def qubit_hotspot_pairs(
    netlist: QuantumNetlist, reach: float, delta_c: float
) -> list:
    """Qubit-qubit hotspot pairs (rect adjacency within reach).

    Depends only on qubit rectangles and frequencies, so callers whose
    qubits are frozen (the detailed placer) may compute this once and
    pass it back through ``hotspot_pairs(..., qubit_pairs=...)``.
    """
    pairs = []
    qubits = netlist.qubits
    # gap_between is never below either axis gap, so every pair kept
    # here (gap <= reach) is within reach on both axes.
    bounds = rect_bounds([q.rect for q in qubits])
    for a_pos, b_pos in near_pairs(*bounds, reach).tolist():
        qa, qb = qubits[a_pos], qubits[b_pos]
        gap = gap_between(qa.rect, qb.rect)
        if gap > reach:
            continue
        t = tau(qa.frequency, qb.frequency, delta_c)
        if t <= 0.0:
            continue
        adjacency = adjacency_length(qa.rect, qb.rect, reach)
        if adjacency <= 0.0:
            continue
        decay = max(0.0, 1.0 - gap / reach)
        contribution = adjacency * decay * t
        if contribution > 0.0:
            pairs.append(
                HotspotPair(
                    ("q", qa.index), ("q", qb.index), adjacency, gap, t, contribution
                )
            )
    return pairs


class _BlockRaster:
    """Dense per-site arrays of wire-block data for the Eq. 4 walk.

    Mirrors the historical ``{site: (resonator_key, block)}`` dict —
    including its last-write-wins overwrite semantics when two blocks
    share a site (possible on unlegalized layouts) — but as flat NumPy
    arrays over the blocks' bounding box so a whole trace's neighborhood
    scan becomes one vectorized gather instead of ``samples × (2r+1)²``
    dict probes.

    The arrays are filled in one pass: x, y and frequency are gathered
    in netlist block order, each block's site is ``np.floor_divide`` of
    its coordinates (the ``int(x // lb)`` of the dict), and a shared site
    keeps the block written last.
    """

    def __init__(self, netlist: QuantumNetlist, lb: float) -> None:
        resonators = netlist.resonators
        self.keys = [r.key for r in resonators]
        self.key_index = {key: i for i, key in enumerate(self.keys)}
        blocks = [b for r in resonators for b in r.blocks]
        self.empty = not blocks
        if self.empty:
            return
        n = len(blocks)
        x = np.fromiter((b.x for b in blocks), dtype=np.float64, count=n)
        y = np.fromiter((b.y for b in blocks), dtype=np.float64, count=n)
        freq = np.fromiter((b.frequency for b in blocks), dtype=np.float64, count=n)
        owner = np.repeat(
            np.arange(len(resonators)), [len(r.blocks) for r in resonators]
        )
        col = np.floor_divide(x, lb).astype(np.int64)
        row = np.floor_divide(y, lb).astype(np.int64)
        self.col_lo = int(col.min())
        self.row_lo = int(row.min())
        self.cols = int(col.max()) - self.col_lo + 1
        self.rows = int(row.max()) - self.row_lo + 1
        flat = (col - self.col_lo) * self.rows + (row - self.row_lo)
        # Last write wins: of the blocks on one site, keep the last one.
        # (A fancy-index assignment leaves duplicate writes unordered.)
        by_site = np.argsort(flat, kind="stable")
        sites = flat[by_site]
        last = by_site[np.append(sites[1:] != sites[:-1], True)]
        size = self.cols * self.rows
        self.bkey = np.full(size, -1, dtype=np.int64)
        self.bx = np.zeros(size, dtype=np.float64)
        self.by = np.zeros(size, dtype=np.float64)
        self.bfreq = np.zeros(size, dtype=np.float64)
        self.bkey[flat[last]] = owner[last]
        self.bx[flat[last]] = x[last]
        self.by[flat[last]] = y[last]
        self.bfreq[flat[last]] = freq[last]


def _trace_pairs(
    netlist: QuantumNetlist,
    reach: float,
    delta_c: float,
    lb: float,
    traces: dict = None,
) -> list:
    """Trace-exposure hotspot pairs, aggregated per resonator pair.

    ``traces`` optionally maps every resonator key to its precomputed MST
    trace (as :func:`~repro.netlist.traces.build_traces` returns), sparing
    the per-call trace rebuild on repeated evaluations.

    The candidate scan (every sample point × its ``(2r+1)²`` neighbor
    sites) is vectorized over the block raster; the few candidates that
    survive the conservative vector filters (block present, foreign,
    nearly resonant, within ~reach) flow through a scalar tail that
    replays the historical per-sample logic — same scan order, same
    ``math.hypot`` distances, same accumulation order — so the result is
    bit-identical to the pre-vectorization walk (pinned by
    ``tests/frequency/test_hotspots_parity.py``).
    """
    raster = _BlockRaster(netlist, lb)
    contributions = {}
    min_gap = {}
    if raster.empty:
        return []
    radius = int(math.ceil(reach / lb))

    # Batch every resonator's trace samples into one array pass (walk
    # order: resonator, then segment, then sample).
    if traces is None:
        traces = build_traces(netlist, lb)
    segments = []
    for resonator in netlist.resonators:
        trace = traces[resonator.key]
        idx = raster.key_index[resonator.key]
        for (x1, y1), (x2, y2) in trace:
            length = math.hypot(x2 - x1, y2 - y1)
            steps = max(1, int(length / (_TRACE_STEP * lb)))
            segments.append((x1, y1, x2, y2, length, steps, idx))
    if not segments:
        return []
    x, y, sample_len, res_idx = expand_samples(segments)
    res_freq = np.array(
        [r.frequency for r in netlist.resonators], dtype=np.float64
    )

    # Neighborhood offsets in the historical scan order (dc outer, dr inner).
    span = np.arange(-radius, radius + 1)
    off_c = np.repeat(span, len(span))
    off_r = np.tile(span, len(span))
    col = np.floor_divide(x, lb).astype(np.int64) - raster.col_lo
    row = np.floor_divide(y, lb).astype(np.int64) - raster.row_lo

    cand_col = col[:, None] + off_c[None, :]
    cand_row = row[:, None] + off_r[None, :]
    inside = (
        (cand_col >= 0)
        & (cand_col < raster.cols)
        & (cand_row >= 0)
        & (cand_row < raster.rows)
    )
    flat = np.where(inside, cand_col * raster.rows + cand_row, 0)
    bkey = np.where(inside, raster.bkey[flat], -1)
    valid = (bkey >= 0) & (bkey != res_idx[:, None])
    if delta_c > 0:
        detuning = np.abs(res_freq[res_idx][:, None] - raster.bfreq[flat])
        valid &= detuning < delta_c
    # Distances are re-checked with math.hypot in the scalar tail; the
    # vectorized cut only has to be conservative (never drop a true hit).
    if valid.any():
        dist_sq = (raster.bx[flat] - x[:, None]) ** 2 + (
            raster.by[flat] - y[:, None]
        ) ** 2
        valid &= dist_sq <= (reach * (1.0 + 1e-9) + 1e-9) ** 2

    # Scalar tail over survivors, in (sample, scan-offset) order —
    # np.argwhere yields row-major indices, matching the historical
    # nested loops exactly.
    last_sample = -1
    seen_here = set()
    for s, w in np.argwhere(valid):
        if s != last_sample:
            last_sample = s
            seen_here = set()
        other_key = raster.keys[bkey[s, w]]
        if other_key in seen_here:
            continue
        f = flat[s, w]
        own_key = raster.keys[res_idx[s]]
        own_freq = float(res_freq[res_idx[s]])
        d = math.hypot(
            float(raster.bx[f]) - float(x[s]), float(raster.by[f]) - float(y[s])
        )
        if d > reach:
            continue
        t = tau(own_freq, float(raster.bfreq[f]), delta_c)
        if t <= 0.0:
            continue
        seen_here.add(other_key)
        decay = max(0.0, 1.0 - d / reach)
        pair = (min(own_key, other_key), max(own_key, other_key))
        contributions[pair] = (
            contributions.get(pair, 0.0) + float(sample_len[s]) * decay * t
        )
        min_gap[pair] = min(min_gap.get(pair, d), d)

    pairs = []
    for (key_a, key_b), contribution in sorted(contributions.items()):
        if contribution <= 0.0:
            continue
        fa = netlist.resonator(*key_a).frequency
        fb = netlist.resonator(*key_b).frequency
        pairs.append(
            HotspotPair(
                ("e", key_a),
                ("e", key_b),
                contribution,
                min_gap[(key_a, key_b)],
                tau(fa, fb, delta_c),
                contribution,
            )
        )
    return pairs


def hotspot_pairs(
    netlist: QuantumNetlist,
    reach: float = DEFAULT_REACH,
    delta_c: float = DEFAULT_DELTA_C,
    lb: float = 1.0,
    traces: dict = None,
    qubit_pairs: list = None,
) -> list:
    """All hotspot pairs: qubit-qubit plus trace-exposure resonator pairs."""
    if qubit_pairs is None:
        qubit_pairs = qubit_hotspot_pairs(netlist, reach, delta_c)
    pairs = list(qubit_pairs)
    pairs.extend(_trace_pairs(netlist, reach, delta_c, lb, traces))
    return pairs


def hotspot_proportion(
    netlist: QuantumNetlist,
    reach: float = DEFAULT_REACH,
    delta_c: float = DEFAULT_DELTA_C,
    pairs: list = None,
    lb: float = 1.0,
) -> float:
    """``Ph`` as a percentage of total component area (Eq. 4)."""
    if pairs is None:
        pairs = hotspot_pairs(netlist, reach, delta_c, lb)
    # The operands and the order of Rect.area's sums, without a Rect each.
    total_area = sum(q.w * q.h for q in netlist.qubits) + sum(
        b.size * b.size for b in netlist.wire_blocks
    )
    if total_area <= 0:
        return 0.0
    return 100.0 * sum(p.contribution for p in pairs) / total_area


def resonator_hotspots(
    netlist: QuantumNetlist,
    reach: float = DEFAULT_REACH,
    delta_c: float = DEFAULT_DELTA_C,
    pairs: list = None,
    lb: float = 1.0,
    traces: dict = None,
    qubit_pairs: list = None,
) -> dict:
    """Per-resonator hotspot score ``He``."""
    if pairs is None:
        pairs = hotspot_pairs(netlist, reach, delta_c, lb, traces, qubit_pairs)
    scores = {r.key: 0.0 for r in netlist.resonators}
    for pair in pairs:
        for cid in (pair.id_a, pair.id_b):
            if cid[0] == "e":
                scores[cid[1]] += pair.contribution
    return scores


def hotspot_report(
    netlist: QuantumNetlist,
    reach: float = DEFAULT_REACH,
    delta_c: float = DEFAULT_DELTA_C,
    lb: float = 1.0,
    traces: dict = None,
) -> HotspotReport:
    """Full hotspot analysis: pairs, Ph, HQ and per-resonator He.

    ``traces`` optionally supplies the layout's MST traces (as
    :func:`~repro.netlist.traces.build_traces` returns), so a caller that
    also counts crossings builds them once.
    """
    pairs = hotspot_pairs(netlist, reach, delta_c, lb, traces)
    per_res = resonator_hotspots(netlist, reach, delta_c, pairs, lb)
    affected = set()
    for pair in pairs:
        for cid in (pair.id_a, pair.id_b):
            if cid[0] == "q":
                affected.add(cid[1])
    for key, score in per_res.items():
        if score > 0.0:
            affected.update(key)
    return HotspotReport(
        pairs=pairs,
        ph_percent=hotspot_proportion(netlist, reach, delta_c, pairs, lb),
        hq=len(affected),
        per_resonator=per_res,
    )
