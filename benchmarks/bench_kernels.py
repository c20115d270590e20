"""Analysis-kernel timings: qubit LP, MST trace build, crossing count.

These are the three kernels PERFORMANCE.md tracks individually — the LP
macro legalization (dominant ``tq`` term at ≥100 qubits), the MST trace
build (dominant cold-evaluation cost) and the sweep-line crossing count
(every Fig. 9 / Table III ``X`` entry).  The LP is timed both with its
default levers (transitive arc reduction + solution-level warm start)
and in the historical cold full-graph mode, and the trace-pair
intersection scan both batched (one vectorized orientation pass over
all candidate pairs) and with the scalar per-pair kernel, so the perf
trajectory records what each lever buys.  Each run dumps best-of-N
wall-clock numbers to ``BENCH_kernels.json`` at the repo root so
successive PRs extend the per-kernel perf trajectory alongside
``BENCH_scaling.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.config import QGDPConfig
from repro.geometry import count_pairwise_crossings
from repro.legalization import get_engine, run_legalization
from repro.legalization.macro_lp import legalize_macros
from repro.legalization.qubit_legalizer import legalize_qubits
from repro.placement import GlobalPlacer, build_layout
from repro.routing.crossings import (
    _candidate_pairs,
    _pair_intersection_counts,
    build_traces,
    count_crossings,
    trace_bbox,
)
from repro.topologies import grid_topology

SIDES = (8, 12)
REPEATS = 5

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _best_ms(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


def run_kernels(sides=SIDES) -> dict:
    """Best-of-N per-kernel wall times on square grids."""
    rows = {}
    for side in sides:
        cfg = QGDPConfig()
        netlist, grid = build_layout(grid_topology(side), cfg)
        GlobalPlacer(cfg).run(netlist, grid)
        snapshot = netlist.snapshot()

        def lp():
            netlist.restore(snapshot)
            legalize_qubits(netlist, grid, cfg)

        lp_ms = _best_ms(lp)

        # Warm vs cold on the same macro LP instance: default levers
        # (arc reduction + warm presolve) against the historical cold
        # full-graph solve.
        indices = [q.index for q in netlist.qubits]
        q_positions = {q.index: (q.x, q.y) for q in netlist.qubits}
        q_sizes = {q.index: (q.w, q.h) for q in netlist.qubits}
        spacing = cfg.min_qubit_spacing
        lp_warm_ms = _best_ms(
            lambda: legalize_macros(
                indices, q_positions, q_sizes, grid, spacing
            )
        )
        lp_cold_ms = _best_ms(
            lambda: legalize_macros(
                indices, q_positions, q_sizes, grid, spacing,
                reduce_arcs=False, warm_start=False,
            )
        )

        netlist.restore(snapshot)
        outcome = run_legalization(netlist, grid, get_engine("qgdp"), cfg)
        traces_ms = _best_ms(lambda: build_traces(netlist, cfg.lb))
        traces = build_traces(netlist, cfg.lb)
        crossings_cached_ms = _best_ms(
            lambda: count_crossings(netlist, outcome.bins, traces=traces)
        )
        crossings_cold_ms = _best_ms(
            lambda: count_crossings(netlist, outcome.bins)
        )

        # Batched vs scalar orientation tests over the layout's actual
        # surviving candidate pairs.
        bboxes = {key: trace_bbox(trace) for key, trace in traces.items()}
        pairs = _candidate_pairs(sorted(traces), bboxes)
        orient_batched_ms = _best_ms(
            lambda: _pair_intersection_counts(traces, pairs)
        )
        orient_scalar_ms = _best_ms(
            lambda: {
                pair: count_pairwise_crossings(
                    traces[pair[0]], traces[pair[1]]
                )
                for pair in pairs
            }
        )
        rows[side * side] = {
            "lp_ms": lp_ms,
            "lp_warm_ms": lp_warm_ms,
            "lp_cold_ms": lp_cold_ms,
            "traces_ms": traces_ms,
            "crossings_cached_ms": crossings_cached_ms,
            "crossings_cold_ms": crossings_cold_ms,
            "orient_batched_ms": orient_batched_ms,
            "orient_scalar_ms": orient_scalar_ms,
        }
    return rows


def test_kernel_timings(benchmark):
    rows = benchmark.pedantic(run_kernels, rounds=1, iterations=1)

    print()
    print("== analysis kernels on square grids (best of "
          f"{REPEATS}, ms) ==")
    for qubits, row in rows.items():
        print(
            f"  {qubits:3d} qubits  lp {row['lp_ms']:7.1f}  "
            f"(warm {row['lp_warm_ms']:5.1f} / cold {row['lp_cold_ms']:5.1f})  "
            f"traces {row['traces_ms']:6.1f}  "
            f"crossings {row['crossings_cached_ms']:5.1f} cached / "
            f"{row['crossings_cold_ms']:5.1f} cold  "
            f"orient {row['orient_batched_ms']:5.2f} batched / "
            f"{row['orient_scalar_ms']:5.2f} scalar"
        )

    RESULT_PATH.write_text(json.dumps(rows, indent=2) + "\n")
    print(f"  kernel trajectory written to {RESULT_PATH.name}")

    # Generous absolute guards: an order of magnitude above the
    # vectorized kernels, far below a pure-Python regression.
    worst = rows[144]
    assert worst["lp_ms"] < 1000.0
    assert worst["traces_ms"] < 500.0
    assert worst["crossings_cold_ms"] < 800.0
