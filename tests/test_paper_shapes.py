"""Headline paper claims, asserted at test scale (small seed counts).

The full sweeps live in ``benchmarks/``; these tests pin the qualitative
results the paper leads with so a regression is caught by ``pytest tests``
alone.
"""

import pytest

from repro import (
    EvaluationConfig,
    QGDPConfig,
    evaluate_engines,
    evaluate_fidelity,
)

TOPOLOGIES = ["falcon", "aspen11"]
ENGINES = ["qgdp", "q-tetris", "tetris"]
BENCHMARKS = ["bv-4", "qaoa-4"]


@pytest.fixture(scope="module")
def eval_config():
    return EvaluationConfig(num_seeds=4, config=QGDPConfig(gp_iterations=120))


@pytest.fixture(scope="module")
def cells(eval_config):
    return evaluate_fidelity(TOPOLOGIES, BENCHMARKS, ENGINES, eval_config)


@pytest.fixture(scope="module")
def evaluations(eval_config):
    return {
        name: evaluate_engines(name, ENGINES, eval_config)
        for name in TOPOLOGIES
    }


def _mean(cells, topo, engine):
    values = [cells[(topo, b, engine)].mean for b in BENCHMARKS]
    return sum(values) / len(values)


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_qgdp_beats_classical_tetris(cells, topo):
    assert _mean(cells, topo, "qgdp") > _mean(cells, topo, "tetris")


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_quantum_hybrid_beats_classical(cells, topo):
    assert _mean(cells, topo, "q-tetris") > _mean(cells, topo, "tetris")


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_qgdp_matches_or_beats_hybrid(cells, topo):
    assert _mean(cells, topo, "qgdp") >= _mean(cells, topo, "q-tetris") * 0.98


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_qgdp_best_integration(evaluations, topo):
    unified = {e: evaluations[topo][e].metrics.unified for e in ENGINES}
    assert unified["qgdp"] == max(unified.values())


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_classical_engines_violate_spacing(evaluations, topo):
    assert evaluations[topo]["qgdp"].metrics.spacing_violations == 0
    assert evaluations[topo]["q-tetris"].metrics.spacing_violations == 0
    assert evaluations[topo]["tetris"].metrics.spacing_violations > 0


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_dp_never_regresses_lg(evaluations, topo):
    lg = evaluations[topo]["qgdp"].metrics
    dp = evaluations[topo]["qgdp"].dp_metrics
    assert dp.unified >= lg.unified
    assert dp.crossings <= lg.crossings
    assert dp.ph_percent <= lg.ph_percent + 1e-9


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_all_layouts_legal(evaluations, topo):
    for engine in ENGINES:
        assert evaluations[topo][engine].metrics.legality_violations == 0
