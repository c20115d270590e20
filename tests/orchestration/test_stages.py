"""Stage runners: the gp → lg → dp jobs run ``QGDPFlow``'s stage methods."""

import pytest

from repro.core.config import QGDPConfig
from repro.core.pipeline import QGDPFlow
from repro.core.result import decode_snapshot
from repro.orchestration.executor import run_jobs
from repro.orchestration.jobs import JobGraph
from repro.orchestration.stages import config_to_dict, run_gp_job
from repro.orchestration.store import ArtifactStore
from repro.orchestration.sweep import add_layout_jobs

#: Wall-clock payload fields; every other field is deterministic.
TIMINGS = {"runtime_s", "qubit_time_s", "resonator_time_s", "dp_time_s"}


@pytest.mark.parametrize("topology", ["grid", "aspenm"])
def test_job_chain_equals_in_process_flow(topology):
    config = QGDPConfig(gp_iterations=60)
    reports = QGDPFlow(topology, config).run(engine="qgdp", detailed=True).stages
    graph = JobGraph()
    add_layout_jobs(
        graph, topology, ("qgdp",), config_to_dict(config), detailed=True
    )
    results, _stats = run_jobs(graph, ArtifactStore())
    jobs = graph.ordered()
    assert [job.kind for job in jobs] == [r.stage for r in reports]
    for job, report in zip(jobs, reports):
        payload = results[job.key]
        assert decode_snapshot(payload["positions"]) == report.positions
        for key, value in payload.items():
            if key not in TIMINGS and key != "positions":
                assert report.metrics[key] == value, (job.kind, key)
    if topology == "aspenm":
        assert reports[-1].metrics["accepted"] > 0  # DP moved something


def test_gp_job_rejects_a_seed_other_than_the_config_seed():
    config = config_to_dict(QGDPConfig(gp_iterations=10))
    params = {"topology": "grid", "config": config, "seed": config["seed"] + 1}
    with pytest.raises(ValueError, match="seed"):
        run_gp_job(params, [])
