"""Scalability — qGDP-LG runtime and quality vs. device size.

The paper motivates qGDP by the scaling of NISQ devices (25 → 127 qubits
in Table I).  This bench sweeps square grids from 16 to 576 qubits
(sides 4–24, well past the paper's largest device) and records
legalization *and* detailed-placement runtime alongside
integration quality; runtime should grow polynomially (the LP is the
dominant term, O(n²) constraints) while integration stays near-perfect.

Each run also dumps the wall-clock numbers to ``BENCH_scaling.json`` at
the repo root so successive PRs leave a perf trajectory (compare against
the committed baseline; see PERFORMANCE.md for the recorded history).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.config import QGDPConfig
from repro.detailed import DetailedPlacer
from repro.legalization import get_engine, run_legalization
from repro.metrics import check_legality, integration_ratio
from repro.placement import GlobalPlacer, build_layout
from repro.topologies import grid_topology

SIDES = (4, 5, 6, 8, 10, 12, 16, 20, 24)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"


def run_sweep(sides=SIDES):
    """place → legalize → detailed-place one square grid per side."""
    rows = {}
    for side in sides:
        cfg = QGDPConfig()
        topology = grid_topology(side)
        netlist, grid = build_layout(topology, cfg)
        GlobalPlacer(cfg).run(netlist, grid)
        outcome = run_legalization(netlist, grid, get_engine("qgdp"), cfg)
        t0 = time.perf_counter()
        dp = DetailedPlacer(cfg).run(netlist, outcome.bins)
        td = time.perf_counter() - t0
        unified, total = integration_ratio(netlist)
        rows[side * side] = {
            "tq_ms": outcome.qubit_time_s * 1e3,
            "te_ms": outcome.resonator_time_s * 1e3,
            "td_ms": td * 1e3,
            "dp_flagged": dp.flagged,
            "dp_accepted": dp.accepted,
            "unified": unified,
            "total": total,
            "legal": not check_legality(netlist, grid),
        }
    return rows


def test_qgdp_scaling_on_grids(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    print()
    print("== qGDP-LG scaling on square grids ==")
    for qubits, row in rows.items():
        print(
            f"  {qubits:3d} qubits  tq {row['tq_ms']:7.1f} ms  "
            f"te {row['te_ms']:6.1f} ms  td {row['td_ms']:7.1f} ms  "
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
