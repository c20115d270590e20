"""Parity: the vectorized Eq. 4 trace walk equals the historical scalar walk.

The reference below is a faithful transcription of the original
``_trace_pairs`` (per-sample dict probes over the ``(2r+1)²``
neighborhood).  The vectorized implementation must return the *same
HotspotPair list* — same pairs, bit-equal contributions and gaps — because
the detailed placer's accept decisions and the Eq. 7 fidelity product
consume these numbers directly.  The scalar tail of the new walk replays
the historical sample/scan order exactly; these tests pin that invariant
on randomized layouts.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frequency.hotspots import (
    HotspotPair,
    _BlockRaster,
    _trace_pairs,
    hotspot_pairs,
)
from repro.frequency.proximity import tau
from repro.netlist import QuantumNetlist, Qubit, Resonator, WireBlock
from repro.netlist.traces import resonator_trace


def _reference_block_index(netlist, lb):
    """site -> (resonator_key, block), verbatim from the original."""
    index = {}
    for resonator in netlist.resonators:
        for block in resonator.blocks:
            col = int(block.x // lb)
            row = int(block.y // lb)
            index[(col, row)] = (resonator.key, block)
    return index


class ReferenceBlockRaster:
    """The per-block loop ``_BlockRaster`` filled its arrays with, verbatim."""

    def __init__(self, netlist, lb):
        self.keys = [r.key for r in netlist.resonators]
        self.key_index = {key: i for i, key in enumerate(self.keys)}
        sites = []  # (col, row, key_idx, x, y, freq) in dict-write order
        for resonator in netlist.resonators:
            idx = self.key_index[resonator.key]
            for block in resonator.blocks:
                col = int(block.x // lb)
                row = int(block.y // lb)
                sites.append((col, row, idx, block.x, block.y, block.frequency))
        self.empty = not sites
        if self.empty:
            return
        self.col_lo = min(s[0] for s in sites)
        self.row_lo = min(s[1] for s in sites)
        self.cols = max(s[0] for s in sites) - self.col_lo + 1
        self.rows = max(s[1] for s in sites) - self.row_lo + 1
        n = self.cols * self.rows
        self.bkey = np.full(n, -1, dtype=np.int64)
        self.bx = np.zeros(n, dtype=np.float64)
        self.by = np.zeros(n, dtype=np.float64)
        self.bfreq = np.zeros(n, dtype=np.float64)
        for col, row, idx, x, y, freq in sites:
            flat = (col - self.col_lo) * self.rows + (row - self.row_lo)
            self.bkey[flat] = idx
            self.bx[flat] = x
            self.by[flat] = y
            self.bfreq[flat] = freq


def raster_state(raster) -> list:
    """Everything the trace walk reads off a raster, arrays as raw bytes."""
    state = [raster.keys, raster.key_index, raster.empty]
    if not raster.empty:
        state += [raster.col_lo, raster.row_lo, raster.cols, raster.rows]
        state += [
            (a.dtype.str, a.tobytes())
            for a in (raster.bkey, raster.bx, raster.by, raster.bfreq)
        ]
    return state


def reference_trace_pairs(netlist, reach, delta_c, lb=1.0, trace_step=0.5):
    """The original scalar ``_trace_pairs``, verbatim."""
    block_at = _reference_block_index(netlist, lb)
    radius = int(math.ceil(reach / lb))
    contributions = {}
    min_gap = {}

    for resonator in netlist.resonators:
        trace = resonator_trace(netlist, resonator, lb)
        for (x1, y1), (x2, y2) in trace:
            length = math.hypot(x2 - x1, y2 - y1)
            steps = max(1, int(length / (trace_step * lb)))
            sample_len = length / steps
            for k in range(steps + 1):
                t_frac = k / steps
                x = x1 + (x2 - x1) * t_frac
                y = y1 + (y2 - y1) * t_frac
                col = int(x // lb)
                row = int(y // lb)
                seen_here = set()
                for dc in range(-radius, radius + 1):
                    for dr in range(-radius, radius + 1):
                        entry = block_at.get((col + dc, row + dr))
                        if entry is None:
                            continue
                        other_key, block = entry
                        if other_key == resonator.key:
                            continue
                        if other_key in seen_here:
                            continue
                        dist = math.hypot(block.x - x, block.y - y)
                        if dist > reach:
                            continue
                        t = tau(resonator.frequency, block.frequency, delta_c)
                        if t <= 0.0:
                            continue
                        seen_here.add(other_key)
                        decay = max(0.0, 1.0 - dist / reach)
                        pair = (
                            min(resonator.key, other_key),
                            max(resonator.key, other_key),
                        )
                        contributions[pair] = (
                            contributions.get(pair, 0.0)
                            + sample_len * decay * t
                        )
                        min_gap[pair] = min(min_gap.get(pair, dist), dist)

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


# Frequencies cluster around 7.0 GHz so some pairs resonate (Δc = 0.04)
# and others are safely detuned.
freq_st = st.sampled_from([6.98, 7.0, 7.01, 7.03, 7.1, 7.2])
coord_st = st.floats(0.2, 19.8, allow_nan=False, allow_infinity=False)
site_st = st.tuples(st.integers(0, 19), st.integers(0, 19))


@st.composite
def netlists(draw):
    nl = QuantumNetlist()
    num_qubits = draw(st.integers(4, 6))
    for index in range(num_qubits):
        nl.add_qubit(
            Qubit(
                index=index,
                w=3,
                h=3,
                x=draw(coord_st),
                y=draw(coord_st),
                frequency=draw(freq_st),
            )
        )
    endpoints = draw(
        st.sets(
            st.tuples(
                st.integers(0, num_qubits - 1), st.integers(0, num_qubits - 1)
            ).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=4,
        )
    )
    for qi, qj in sorted(endpoints):
        if nl.has_resonator(qi, qj):
            continue
        resonator = nl.add_resonator(
            Resonator(qi=qi, qj=qj, wirelength=4.0, frequency=draw(freq_st))
        )
        sites = draw(st.lists(site_st, min_size=1, max_size=8))
        freq = resonator.frequency
        resonator.blocks = [
            WireBlock(
                resonator_key=resonator.key,
                ordinal=k,
                x=c + draw(st.floats(0.1, 0.9)),
                y=r + draw(st.floats(0.1, 0.9)),
                frequency=freq,
            )
            for k, (c, r) in enumerate(sites)
        ]
    return nl


@settings(max_examples=60, deadline=None)
@given(nl=netlists(), reach=st.sampled_from([1.0, 2.0, 3.5]))
def test_trace_pairs_match_reference_exactly(nl, reach):
    got = _trace_pairs(nl, reach, 0.04, 1.0)
    want = reference_trace_pairs(nl, reach, 0.04)
    assert got == want  # bit-equal contributions, gaps and tau weights


@settings(max_examples=20, deadline=None)
@given(nl=netlists())
def test_hotspot_pairs_entry_point_matches_reference(nl):
    got = [p for p in hotspot_pairs(nl, 2.0, 0.04) if p.id_a[0] == "e"]
    want = reference_trace_pairs(nl, 2.0, 0.04)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(nl=netlists(), lb=st.sampled_from([1.0, 0.5, 0.3, 2.0]))
def test_block_raster_matches_per_block_loop(nl, lb):
    assert raster_state(_BlockRaster(nl, lb)) == raster_state(
        ReferenceBlockRaster(nl, lb)
    )


def test_block_raster_shared_sites_keep_the_last_block():
    """Two blocks on one site (within one resonator and across two), at
    negative coordinates too: the block written last wins, as in the dict."""
    nl = QuantumNetlist()
    for index in range(3):
        nl.add_qubit(Qubit(index=index, w=3, h=3, x=4.0 * index, y=0.0))
    spots = {
        (0, 1): [(2.5, 1.5, 7.0), (2.4, 1.6, 7.01), (-1.5, -0.5, 7.02)],
        (1, 2): [(2.6, 1.4, 7.03), (-1.2, -0.8, 7.04), (5.5, 3.5, 7.05)],
    }
    for key, blocks in spots.items():
        resonator = nl.add_resonator(Resonator(*key, wirelength=3.0, frequency=7.0))
        resonator.blocks = [
            WireBlock(resonator_key=key, ordinal=k, x=x, y=y, frequency=f)
            for k, (x, y, f) in enumerate(blocks)
        ]
    raster = _BlockRaster(nl, 1.0)
    assert raster_state(raster) == raster_state(ReferenceBlockRaster(nl, 1.0))
    flat = (2 - raster.col_lo) * raster.rows + (1 - raster.row_lo)
    assert (raster.bkey[flat], raster.bfreq[flat]) == (1, 7.03)
    flat = (-2 - raster.col_lo) * raster.rows + (-1 - raster.row_lo)
    assert (raster.bkey[flat], raster.bx[flat]) == (1, -1.2)


def test_block_raster_of_a_netlist_without_blocks():
    nl = QuantumNetlist()
    nl.add_qubit(Qubit(index=0, w=3, h=3))
    nl.add_qubit(Qubit(index=1, w=3, h=3, x=5.0))
    nl.add_resonator(Resonator(qi=0, qj=1, wirelength=1.0))
    assert raster_state(_BlockRaster(nl, 1.0)) == raster_state(
        ReferenceBlockRaster(nl, 1.0)
    )


def test_precomputed_traces_are_honored():
    nl = QuantumNetlist()
    for index, x in ((0, 1.5), (1, 17.5), (2, 1.5), (3, 17.5)):
        y = 1.5 if index < 2 else 5.5
        nl.add_qubit(Qubit(index=index, w=3, h=3, x=x, y=y, frequency=5.0 + index * 0.07))
    r1 = nl.add_resonator(Resonator(qi=0, qj=1, wirelength=4.0, frequency=7.0))
    r1.blocks = [
        WireBlock(resonator_key=r1.key, ordinal=k, x=c + 0.5, y=1.5, frequency=7.0)
        for k, c in enumerate((3, 4, 14, 15))
    ]
    r2 = nl.add_resonator(Resonator(qi=2, qj=3, wirelength=4.0, frequency=7.0))
    r2.blocks = [
        WireBlock(resonator_key=r2.key, ordinal=k, x=c + 0.5, y=2.5, frequency=7.0)
        for k, c in enumerate(range(7, 12))
    ]
    traces = {r.key: resonator_trace(nl, r, 1.0) for r in nl.resonators}
    assert _trace_pairs(nl, 2.0, 0.04, 1.0, traces) == _trace_pairs(
        nl, 2.0, 0.04, 1.0
    )
