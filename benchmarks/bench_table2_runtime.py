"""Table II — legalization runtime: tq (qubits) and te (resonators), ms.

Expected shape (paper Table II): quantum qubit legalization (qGDP-LG,
Q-Abacus, Q-Tetris) costs more tq than the classical macro legalizer
(spacing relaxation retries); Eagle is the slowest topology by an order of
magnitude; all times stay in the millisecond range.

Absolute numbers differ from the paper (pure Python here vs. their C++
kernels on a Xeon E5-2687W), but within-table ratios are comparable.
"""

from __future__ import annotations

from repro.core.config import QGDPConfig
from repro.evaluation import format_table2
from repro.legalization import PAPER_ENGINE_ORDER, get_engine, run_legalization
from repro.placement import GlobalPlacer, build_layout
from repro.topologies import PAPER_TOPOLOGIES, get_topology

#: Paper Table II means (ms).
PAPER_MEAN_TQ = {"qgdp": 7.78, "q-abacus": 7.68, "q-tetris": 7.75, "abacus": 3.89, "tetris": 4.37}
PAPER_MEAN_TE = {"qgdp": 2.43, "q-abacus": 1.76, "q-tetris": 1.57, "abacus": 1.53, "tetris": 1.32}


def test_table2_legalization_runtime(benchmark, engine_evaluations):
    print()
    print(format_table2(engine_evaluations, PAPER_TOPOLOGIES, PAPER_ENGINE_ORDER))
    print("paper means (ms): tq", PAPER_MEAN_TQ, "te", PAPER_MEAN_TE)

    mean_tq = {
        engine: sum(
            engine_evaluations[t][engine].qubit_time_s for t in PAPER_TOPOLOGIES
        )
        / len(PAPER_TOPOLOGIES)
        for engine in PAPER_ENGINE_ORDER
    }
    # Shape: quantum qubit legalization costs at least as much as classical
    # (relaxation retries), echoing the paper's tq ordering.
    assert mean_tq["qgdp"] >= mean_tq["tetris"] * 0.8
    # The two largest devices (Eagle 127q, Aspen-M 80q) dominate tq within
    # every engine, as in the paper's Table II.
    for engine in PAPER_ENGINE_ORDER:
        times = {
            t: engine_evaluations[t][engine].qubit_time_s
            for t in PAPER_TOPOLOGIES
        }
        slowest_two = sorted(times, key=times.get)[-2:]
        assert "eagle" in slowest_two or "aspenm" in slowest_two
        assert times["eagle"] >= max(
            times[t] for t in ("grid", "falcon", "xtree", "aspen11")
        )

    # pytest-benchmark timing: one representative qGDP legalization on
    # Falcon (GP excluded), the unit Table II times.
    cfg = QGDPConfig()
    netlist, grid = build_layout(get_topology("falcon"), cfg)
    GlobalPlacer(cfg).run(netlist, grid)
    gp_positions = netlist.snapshot()
    engine = get_engine("qgdp")

    def legalize_once():
        netlist.restore(gp_positions)
        return run_legalization(netlist, grid, engine, cfg)

    outcome = benchmark(legalize_once)
    assert outcome.qubit_time_s + outcome.resonator_time_s < 5.0
