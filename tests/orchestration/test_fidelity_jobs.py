"""Fidelity jobs: Eq. 7 from the layouts' analyses, no layout built.

One ``fidelity`` job per (topology, benchmark) scores the benchmark's
transpiled programs on every engine's layout.

* Each engine's samples equal the in-process ``program_fidelity`` on the
  live legalized layout, exactly (floating point equality).
* A fidelity job reads only its ``transpile`` and ``analyze`` payloads:
  with ``build_layout`` made to raise it still reproduces its payload.
* Each seed's stats are decoded once per job, not once per engine.
* The engine list is keyed in sorted order, whatever order a spec lists
  the engines in.
"""

import pytest

import repro.orchestration.stages as stages
from repro.circuits import get_benchmark
from repro.compiler import transpile
from repro.core.config import QGDPConfig
from repro.core.pipeline import QGDPFlow
from repro.crosstalk import program_fidelity
from repro.orchestration.executor import run_jobs
from repro.orchestration.stages import config_to_dict, execute_job
from repro.orchestration.store import ArtifactStore
from repro.orchestration.sweep import SweepSpec, cell_samples, plan_sweep
from repro.routing import count_crossings

CONFIG = QGDPConfig(gp_iterations=60)
TOPOLOGIES = ("xtree", "aspen11")
BENCHMARKS = ("bv-4", "qaoa-4")
#: Listed unsorted; aspen11/tetris has rows of every Eq. 7 kind.
ENGINES = ("tetris", "abacus", "qgdp")


def _spec(engines=ENGINES):
    return SweepSpec(
        TOPOLOGIES, BENCHMARKS, engines, num_seeds=3, config=config_to_dict(CONFIG)
    )


@pytest.fixture(scope="module")
def sweep():
    spec = _spec()
    plan = plan_sweep(spec)
    results, _stats = run_jobs(plan.graph, ArtifactStore())
    return spec, plan, results


def _fidelity_jobs(plan):
    return [job for job in plan.graph.ordered() if job.kind == "fidelity"]


def test_one_fidelity_job_per_topology_and_benchmark(sweep):
    _spec_, plan, _results = sweep
    jobs = _fidelity_jobs(plan)
    assert len(jobs) == len(TOPOLOGIES) * len(BENCHMARKS)
    assert len(plan.cells) == len(jobs) * len(ENGINES)
    for job in jobs:
        assert job.params["engines"] == sorted(ENGINES)
        transpile_job, *analyses = (plan.graph[dep] for dep in job.deps)
        assert transpile_job.kind == "transpile"
        assert transpile_job.params["benchmark"] == job.params["benchmark"]
        assert [a.kind for a in analyses] == ["analyze"] * len(ENGINES)
        assert [a.params["engine"] for a in analyses] == sorted(ENGINES)
    for (topology, bench, _engine), key in plan.cells.items():
        params = plan.graph[key].params
        assert (params["topology"], params["benchmark"]) == (topology, bench)


@pytest.mark.parametrize(
    "topology,engine", [(t, e) for t in TOPOLOGIES for e in ENGINES]
)
def test_fidelity_jobs_equal_in_process_program_fidelity(sweep, topology, engine):
    spec, plan, results = sweep
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
        cell_id = (topology, bench, engine)
        samples = cell_samples(cell_id, results[plan.cells[cell_id]])
        assert samples == expected  # bit-equal, not approx


def test_aspen11_tetris_analysis_has_every_row_kind(sweep):
    _spec_, plan, results = sweep
    (analysis,) = [
        job
        for job in plan.graph.ordered()
        if job.kind == "analyze"
        and (job.params["topology"], job.params["engine"]) == ("aspen11", "tetris")
    ]
    inputs = results[analysis.key]["fidelity_inputs"]
    for rows in inputs.values():
        assert rows


def test_fidelity_job_builds_no_layout(sweep, monkeypatch):
    import repro.core.pipeline
    import repro.placement.builder

    def no_build(*args, **kwargs):
        raise AssertionError("a fidelity job built a layout")

    monkeypatch.setattr(repro.core.pipeline, "build_layout", no_build)
    monkeypatch.setattr(repro.placement.builder, "build_layout", no_build)
    _spec_, plan, results = sweep
    for job in _fidelity_jobs(plan):
        deps = [results[dep] for dep in job.deps]
        assert execute_job("fidelity", job.params, deps) == results[job.key]


def test_each_seed_is_decoded_once_per_job(sweep, monkeypatch):
    spec, plan, results = sweep
    decoded = []
    decode = stages.transpile_stats_from_dict

    def counting(data):
        decoded.append(data)
        return decode(data)

    monkeypatch.setattr(stages, "transpile_stats_from_dict", counting)
    for job in _fidelity_jobs(plan):
        decoded.clear()
        deps = [results[dep] for dep in job.deps]
        assert execute_job("fidelity", job.params, deps) == results[job.key]
        assert decoded == deps[0]["stats"]  # each seed once, in seed order
        assert len(decoded) == spec.num_seeds


def test_engine_order_does_not_split_keys(sweep):
    _spec_, plan, _results = sweep
    reordered = plan_sweep(_spec(tuple(reversed(ENGINES))))
    assert set(reordered.graph.jobs) == set(plan.graph.jobs)
    assert reordered.cells == {
        cell_id: plan.cells[cell_id] for cell_id in reordered.cells
    }
