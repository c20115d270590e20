"""Fidelity jobs: Eq. 7 from the layout's one analysis, no layout built.

* Each fidelity job's samples equal the in-process ``program_fidelity``
  on the live legalized layout, exactly (floating point equality).
* A fidelity job reads only its ``analyze`` and ``transpile`` payloads:
  with ``build_layout`` made to raise it still reproduces its payload.
"""

import pytest

from repro.circuits import get_benchmark
from repro.compiler import transpile
from repro.core.config import QGDPConfig
from repro.core.pipeline import QGDPFlow
from repro.crosstalk import program_fidelity
from repro.orchestration.executor import run_jobs
from repro.orchestration.stages import config_to_dict, execute_job
from repro.orchestration.store import ArtifactStore
from repro.orchestration.sweep import SweepSpec, plan_sweep
from repro.routing import count_crossings

CONFIG = QGDPConfig(gp_iterations=60)
BENCHMARKS = ("bv-4", "qaoa-4")
#: (topology, engine) layouts; aspen11/tetris has rows of every Eq. 7 kind.
CASES = [("xtree", "abacus"), ("aspen11", "tetris")]


def _sweep(topology: str, engine: str):
    spec = SweepSpec(
        (topology,),
        BENCHMARKS,
        (engine,),
        num_seeds=3,
        config=config_to_dict(CONFIG),
    )
    plan = plan_sweep(spec)
    results, _stats = run_jobs(plan.graph, ArtifactStore())
    return spec, plan, results


@pytest.fixture(scope="module")
def sweeps():
    return {case: _sweep(*case) for case in CASES}


@pytest.mark.parametrize("topology,engine", CASES)
def test_fidelity_jobs_equal_in_process_program_fidelity(
    sweeps, topology, engine
):
    spec, plan, results = sweeps[(topology, engine)]
    flow = QGDPFlow(topology, CONFIG)
    flow.run(engine, detailed=False)
    crossings = count_crossings(flow.netlist, flow.bins)
    for bench in BENCHMARKS:
        expected = [
            program_fidelity(
                flow.netlist,
                transpile(
                    get_benchmark(bench),
                    flow.topology,
                    seed=spec.mapping_seed(k),
                ),
                crossings,
                CONFIG,
            ).fidelity
            for k in range(spec.num_seeds)
        ]
        samples = results[plan.cells[(topology, bench, engine)]]["samples"]
        assert samples == expected  # bit-equal, not approx


def test_aspen11_tetris_analysis_has_every_row_kind(sweeps):
    _spec, plan, results = sweeps[("aspen11", "tetris")]
    (analysis,) = [job for job in plan.graph.ordered() if job.kind == "analyze"]
    inputs = results[analysis.key]["fidelity_inputs"]
    for rows in inputs.values():
        assert rows


def test_fidelity_job_builds_no_layout(sweeps, monkeypatch):
    import repro.core.pipeline
    import repro.placement.builder

    def no_build(*args, **kwargs):
        raise AssertionError("a fidelity job built a layout")

    monkeypatch.setattr(repro.core.pipeline, "build_layout", no_build)
    monkeypatch.setattr(repro.placement.builder, "build_layout", no_build)
    _spec, plan, results = sweeps[("aspen11", "tetris")]
    for key in plan.cells.values():
        job = plan.graph[key]
        deps = [results[dep] for dep in job.deps]
        assert execute_job("fidelity", job.params, deps) == results[key]
