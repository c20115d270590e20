"""A resumed run decodes only the artifacts it reads.

``run_jobs`` resolves a resume in one reverse pass over the graph from
the payloads its caller reads (``outputs``): those are decoded, and a
job nothing pending reads is cached when its artifact exists.  So a
corrupt artifact is recomputed by the first run that reads it, a
missing one is always recomputed, and the rows never change.
"""

import json
import os
import shutil

import pytest

from repro.core.config import QGDPConfig
from repro.evaluation import EvaluationConfig, run_engine_evaluations, sweep_spec
from repro.orchestration import ArtifactStore, plan_sweep, run_jobs, run_sweep

TOPOLOGIES = ["aspen11"]
BENCHMARKS = ["bv-4"]
ENGINES = ["qgdp", "tetris"]
CORRUPT = "{not json"


@pytest.fixture(scope="module")
def eval_config():
    return EvaluationConfig(
        num_seeds=2, detailed=True, config=QGDPConfig(gp_iterations=60)
    )


@pytest.fixture(scope="module")
def spec(eval_config):
    return sweep_spec(TOPOLOGIES, BENCHMARKS, ENGINES, eval_config)


@pytest.fixture(scope="module")
def filled(spec, tmp_path_factory):
    """A cold sweep's cache directory and its result."""
    root = str(tmp_path_factory.mktemp("filled") / "cache")
    return root, run_sweep(spec, cache_dir=root)


@pytest.fixture
def cache(filled, tmp_path):
    """A private copy of the filled cache, free to damage."""
    root = str(tmp_path / "cache")
    shutil.copytree(filled[0], root)
    return root


def _path(root, job):
    return os.path.join(root, job.kind, f"{job.key}.json")


def _jobs(spec, kind, **params):
    return [
        job
        for job in plan_sweep(spec).graph.ordered()
        if job.kind == kind
        and all(job.params.get(name) == value for name, value in params.items())
    ]


def _computed(result):
    return [e["key"] for e in result.stats.entries if e["status"] == "computed"]


def test_unread_corrupt_artifacts_are_not_decoded(spec, filled, cache):
    for job in plan_sweep(spec).graph.ordered():
        if job.kind != "fidelity":
            with open(_path(cache, job), "w") as fh:
                fh.write(CORRUPT)
    resumed = run_sweep(spec, cache_dir=cache, resume=True)
    assert resumed.stats.computed == 0
    assert resumed.stats.cached == resumed.stats.total
    assert resumed.rows == filled[1].rows


def test_corrupt_cell_recomputes_only_that_cell(spec, filled, cache):
    cell = _jobs(spec, "fidelity", engine="tetris")[0]
    with open(_path(cache, cell), "w") as fh:
        fh.write(CORRUPT)
    resumed = run_sweep(spec, cache_dir=cache, resume=True)
    assert _computed(resumed) == [cell.key]
    assert resumed.rows == filled[1].rows
    with open(_path(cache, cell)) as fh:
        assert json.load(fh) == ArtifactStore(filled[0]).get("fidelity", cell.key)


def test_missing_analysis_recomputes_its_corrupt_layout(spec, filled, cache):
    (analysis,) = _jobs(spec, "analyze", engine="tetris")
    (lg,) = _jobs(spec, "lg", engine="tetris")
    assert analysis.deps == (lg.key,)
    os.remove(_path(cache, analysis))
    with open(_path(cache, lg), "w") as fh:
        fh.write(CORRUPT)
    resumed = run_sweep(spec, cache_dir=cache, resume=True)
    assert _computed(resumed) == [lg.key, analysis.key]  # not the gp job
    assert resumed.rows == filled[1].rows
    assert ArtifactStore(cache).get("lg", lg.key) is not None


def test_missing_transpile_is_recomputed_under_cached_cells(spec, filled, cache):
    (transpile,) = _jobs(spec, "transpile")
    os.remove(_path(cache, transpile))
    resumed = run_sweep(spec, cache_dir=cache, resume=True)
    assert _computed(resumed) == [transpile.key]
    statuses = {e["key"]: e["status"] for e in resumed.stats.entries}
    for cell in _jobs(spec, "fidelity"):
        assert transpile.key in cell.deps
        assert statuses[cell.key] == "cached"
    assert resumed.rows == filled[1].rows
    assert os.path.exists(_path(cache, transpile))


def test_outputs_are_returned_in_graph_order(spec, filled):
    graph = plan_sweep(spec).graph
    order = [job.key for job in graph.ordered()]
    picked = [order[-1], order[0], order[3]]
    results, stats = run_jobs(
        graph, ArtifactStore(filled[0]), resume=True, outputs=picked
    )
    assert list(results) == sorted(picked, key=order.index)
    assert stats.computed == 0 and stats.cached == len(graph)
    with pytest.raises(ValueError):
        run_jobs(graph, ArtifactStore(), outputs=["no-such-key"])


def test_warm_tables_skip_corrupt_gp_artifacts(eval_config, tmp_path):
    root = str(tmp_path / "cache")
    cold = run_engine_evaluations(TOPOLOGIES, ENGINES, eval_config, cache_dir=root)
    for name in os.listdir(os.path.join(root, "gp")):
        with open(os.path.join(root, "gp", name), "w") as fh:
            fh.write(CORRUPT)
    warm = run_engine_evaluations(
        TOPOLOGIES, ENGINES, eval_config, cache_dir=root, resume=True
    )
    assert warm.stats.computed == 0
    assert warm.evaluations == cold.evaluations
