"""Transpile jobs: one per (topology, benchmark), covering every seed.

* A transpile job's ``stats[k]`` equals the payload of a standalone
  ``transpile`` of its k-th seed on a freshly built topology, so the
  shortest-path memo its seeds share changes nothing.
* The paper protocol plans 324 jobs, 42 of them ``transpile``; every
  fidelity job depends on its layout's analysis and its benchmark's one
  transpile job, and a benchmark wider than a device gets no job there.
"""

import pytest

from repro.circuits import PAPER_BENCHMARKS, get_benchmark
from repro.compiler import transpile
from repro.legalization.engines import PAPER_ENGINE_ORDER
from repro.orchestration.stages import execute_job, transpile_stats_to_dict
from repro.orchestration.sweep import SweepSpec, plan_sweep
from repro.topologies import PAPER_TOPOLOGIES, get_topology

#: ising-4 maps without SWAPs on most devices; bv-9 needs them on all.
BENCHMARKS = ("ising-4", "bv-9")
SEEDS = [SweepSpec((), (), ()).mapping_seed(k) for k in range(3)]


@pytest.mark.parametrize("topology", PAPER_TOPOLOGIES)
def test_batched_stats_equal_fresh_per_seed_transpiles(topology):
    for bench in BENCHMARKS:
        payload = execute_job(
            "transpile",
            {"topology": topology, "benchmark": bench, "seeds": SEEDS},
            [],
        )
        assert len(payload["stats"]) == len(SEEDS)
        for seed, stats in zip(SEEDS, payload["stats"]):
            fresh = transpile(
                get_benchmark(bench), get_topology(topology), seed=seed
            )
            assert stats == transpile_stats_to_dict(fresh)


def test_bv9_needs_swaps_on_every_paper_topology():
    circuit = get_benchmark("bv-9")
    logical = sum(1 for gate in circuit.gates if gate.num_qubits == 2)
    for topology in PAPER_TOPOLOGIES:
        transpiled = transpile(circuit, get_topology(topology), seed=SEEDS[0])
        assert sum(transpiled.gates_2q.values()) // 2 > logical


def test_paper_plan_has_one_transpile_job_per_topology_and_benchmark():
    spec = SweepSpec(
        PAPER_TOPOLOGIES, PAPER_BENCHMARKS, PAPER_ENGINE_ORDER,
        num_seeds=50, detailed=True,
    )
    plan = plan_sweep(spec)
    graph = plan.graph
    assert len(graph) == 324
    transpiles = [job for job in graph.ordered() if job.kind == "transpile"]
    assert len(transpiles) == 42
    seeds = [spec.mapping_seed(k) for k in range(50)]
    assert all(job.params["seeds"] == seeds for job in transpiles)
    for (topology, bench, _engine), key in plan.cells.items():
        analysis, transpile_key = graph[key].deps
        assert graph[analysis].kind == "analyze"
        job = graph[transpile_key]
        assert job.kind == "transpile"
        assert (job.params["topology"], job.params["benchmark"]) == (
            topology,
            bench,
        )


def test_benchmark_wider_than_device_gets_no_transpile_job():
    # bv-26 needs 26 qubits: grid has 25, falcon 27.
    plan = plan_sweep(SweepSpec(("grid", "falcon"), ("bv-4", "bv-26"), ("qgdp",)))
    planned = {
        (job.params["topology"], job.params["benchmark"])
        for job in plan.graph.ordered()
        if job.kind == "transpile"
    }
    assert planned == {("grid", "bv-4"), ("falcon", "bv-4"), ("falcon", "bv-26")}
    assert ("grid", "bv-26", "qgdp") not in plan.cells
    assert ("falcon", "bv-26", "qgdp") in plan.cells
