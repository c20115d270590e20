"""Scalability — qGDP-LG runtime and quality vs. device size.

The paper motivates qGDP by the scaling of NISQ devices (25 → 127 qubits
in Table I).  This bench runs the whole flow (:meth:`QGDPFlow.run`:
build, GP, qGDP-LG, DP and both layout-metric passes) on square grids
from 16 to 576 qubits (sides 4–24, well past the paper's largest
device).  It records the flow's wall time (``flow_ms``) and, from the
stage reports, the build + global placement (``gp_ms``), legalization
and detailed-placement runtimes alongside integration quality; runtime
should grow polynomially (the LP is the dominant legalization term,
O(n²) constraints) while integration stays near-perfect.

Each run also dumps the wall-clock numbers to ``BENCH_scaling.json`` at
the repo root so successive PRs leave a perf trajectory (compare against
the committed baseline; see PERFORMANCE.md for the recorded history).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.pipeline import QGDPFlow
from repro.topologies import grid_topology

SIDES = (4, 5, 6, 8, 10, 12, 16, 20, 24)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"


def run_sweep(sides=SIDES):
    """One full qGDP flow (with DP) per square-grid side."""
    rows = {}
    for side in sides:
        t0 = time.perf_counter()
        result = QGDPFlow(grid_topology(side)).run("qgdp", detailed=True)
        flow_s = time.perf_counter() - t0
        lg = result.stage("lg")
        dp = result.stage("dp")
        rows[side * side] = {
            "gp_ms": result.stage("gp").runtime_s * 1e3,
            "tq_ms": lg.metrics["qubit_time_s"] * 1e3,
            "te_ms": lg.metrics["resonator_time_s"] * 1e3,
            "td_ms": dp.runtime_s * 1e3,
            "flow_ms": flow_s * 1e3,
            "dp_flagged": dp.metrics["flagged"],
            "dp_accepted": dp.metrics["accepted"],
            "unified": dp.metrics["unified"],
            "total": dp.metrics["total_resonators"],
            "legal": dp.metrics["legality_violations"] == 0,
        }
    return rows


def test_qgdp_scaling_on_grids(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    print()
    print("== qGDP-LG scaling on square grids ==")
    for qubits, row in rows.items():
        print(
            f"  {qubits:3d} qubits  gp {row['gp_ms']:7.1f} ms  "
            f"tq {row['tq_ms']:7.1f} ms  "
            f"te {row['te_ms']:6.1f} ms  td {row['td_ms']:7.1f} ms  "
            f"flow {row['flow_ms']:8.1f} ms  "
            f"Iedge {row['unified']}/{row['total']}"
        )

    RESULT_PATH.write_text(json.dumps(rows, indent=2) + "\n")
    print(f"  wall-clock trajectory written to {RESULT_PATH.name}")

    for qubits, row in rows.items():
        assert row["legal"], f"{qubits}-qubit layout illegal"
        assert row["unified"] >= 0.9 * row["total"], qubits
    # Polynomial, not explosive: 4x the qubits costs < 60x the time.
    assert rows[64]["tq_ms"] < 60 * max(rows[16]["tq_ms"], 1.0)
    assert rows[144]["tq_ms"] < 60 * max(rows[36]["tq_ms"], 1.0)
    # The legalize→detailed hot path must scale polynomially too (the
    # pre-array seed blew this guard up by ~20x at 64 qubits).
    small = max(rows[16]["te_ms"] + rows[16]["td_ms"], 1.0)
    assert rows[64]["te_ms"] + rows[64]["td_ms"] < 60 * small
    assert rows[144]["te_ms"] + rows[144]["td_ms"] < 200 * small
    # The 256–576-qubit tail (sides 16–24, past the paper's largest
    # device) must stay polynomial as well: 4x the qubits from 144,
    # and 2.25x from 256, each within the same generous envelope.
    assert rows[576]["tq_ms"] < 60 * max(rows[144]["tq_ms"], 1.0)
    mid = max(rows[256]["te_ms"] + rows[256]["td_ms"], 1.0)
    assert rows[576]["te_ms"] + rows[576]["td_ms"] < 60 * mid
