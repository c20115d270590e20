"""Shared benchmark infrastructure.

Every bench regenerates one of the paper's tables or figures and prints it
next to the paper's reference numbers (see EXPERIMENTS.md).  Heavy
artifacts (GP solutions, legalized layouts, engine evaluations) are
computed once per session and shared.

``QGDP_BENCH_SEEDS`` controls the number of random mappings per fidelity
cell (default 10; the paper uses 50 — set it for a full run).
``QGDP_BENCH_WORKERS`` fans the fidelity sweep out over that many worker
processes, and ``QGDP_BENCH_CACHE`` points at a disk artifact cache so
repeated bench sessions resume from finished stages — results are
bit-identical either way (see docs/orchestration.md).
"""

from __future__ import annotations

import os

import pytest

from repro.circuits import PAPER_BENCHMARKS
from repro.core.config import QGDPConfig
from repro.evaluation import (
    EvaluationConfig,
    cells_from_sweep,
    evaluate_engines,
    sweep_spec,
)
from repro.legalization import PAPER_ENGINE_ORDER
from repro.orchestration import run_sweep
from repro.topologies import PAPER_TOPOLOGIES

BENCH_SEEDS = int(os.environ.get("QGDP_BENCH_SEEDS", "10"))
BENCH_WORKERS = int(os.environ.get("QGDP_BENCH_WORKERS", "1"))
BENCH_CACHE = os.environ.get("QGDP_BENCH_CACHE", "")


@pytest.fixture(scope="session")
def eval_config():
    """The sweep configuration every bench shares."""
    return EvaluationConfig(
        num_seeds=BENCH_SEEDS, detailed=True, config=QGDPConfig()
    )


@pytest.fixture(scope="session")
def fidelity_results(eval_config):
    """Fig. 8 cells for all paper topologies, via the orchestrator."""
    spec = sweep_spec(
        PAPER_TOPOLOGIES, PAPER_BENCHMARKS, PAPER_ENGINE_ORDER, eval_config
    )
    outcome = run_sweep(
        spec,
        cache_dir=BENCH_CACHE or None,
        workers=BENCH_WORKERS,
        resume=bool(BENCH_CACHE),
    )
    return cells_from_sweep(outcome.cells)


@pytest.fixture(scope="session")
def engine_evaluations(eval_config):
    """{topology: {engine: EngineEvaluation}} for all paper topologies.

    Feeds Fig. 9, Table II and Table III; computed once.
    """
    return {
        name: evaluate_engines(name, PAPER_ENGINE_ORDER, eval_config)
        for name in PAPER_TOPOLOGIES
    }
