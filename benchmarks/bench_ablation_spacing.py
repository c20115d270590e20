"""Ablation — minimum-spacing schedule (Section III-C trade-off).

Larger initial spacing buys crosstalk isolation but costs displacement and
solver retries; the paper's greedy relaxation starts stringent and backs
off only when infeasible.  This bench sweeps the schedule's starting point
and reports attempts, displacement and hotspot pressure.
"""

from __future__ import annotations

from repro.core.config import QGDPConfig
from repro.frequency.hotspots import hotspot_proportion
from repro.legalization import legalize_qubits
from repro.legalization.engines import get_engine, run_legalization
from repro.metrics import qubit_spacing_violations
from repro.placement import GlobalPlacer, build_layout
from repro.topologies import get_topology


def test_spacing_schedule_ablation(benchmark):
    topology = get_topology("aspen11")

    def sweep():
        rows = {}
        for initial in (1.0, 2.0, 3.0):
            cfg = QGDPConfig(initial_qubit_spacing=initial)
            netlist, grid = build_layout(topology, cfg)
            GlobalPlacer(cfg).run(netlist, grid)
            gp = netlist.snapshot()
            result = legalize_qubits(netlist, grid, cfg, quantum=True)
            netlist.restore(gp)
            run_legalization(netlist, grid, get_engine("qgdp"), cfg)
            rows[initial] = {
                "attempts": result.attempts,
                "spacing_used": result.spacing_used,
                "displacement": result.total_displacement,
                "violations": len(
                    qubit_spacing_violations(netlist, cfg.min_qubit_spacing)
                ),
                "ph": hotspot_proportion(netlist, cfg.reach, cfg.delta_c),
            }
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("== spacing-schedule ablation on aspen11 ==")
    for initial, row in rows.items():
        print(
            f"  start={initial:.0f}lb attempts={row['attempts']} "
            f"used={row['spacing_used']:.0f}lb "
            f"displacement={row['displacement']:7.1f} "
            f"violations={row['violations']} Ph={row['ph']:.2f}%"
        )

    # The quantum minimum is always met, whatever the starting point.
    assert all(row["violations"] == 0 for row in rows.values())
    # Stricter starting points can only increase qubit displacement.
    assert rows[1.0]["displacement"] <= rows[3.0]["displacement"] + 1e-6
    # Relaxation only ever settles at >= the configured minimum.
    assert all(row["spacing_used"] >= 1.0 for row in rows.values())
