"""Acceptance: the orchestrated sweep is bit-identical and truly resumable.

* A ``repro sweep``-style run (parallel workers, disk artifact cache)
  must produce **bit-identical** :class:`FidelityCell` means and samples
  to the serial ``evaluate_fidelity`` path — floating point equality, not
  approximate.
* A second ``--resume`` invocation of the same sweep must complete with
  **zero recomputed stage jobs**, verified through the cache-hit counters
  that end up in the run manifest.
* Shards slice the fidelity jobs deterministically: no two shards
  compute one job, their cells partition the full set, and their union
  equals the unsharded sweep.
"""

import pytest

from repro.core.config import QGDPConfig
from repro.evaluation import EvaluationConfig, evaluate_fidelity, sweep_spec
from repro.orchestration import run_sweep

TOPOLOGIES = ["grid"]
BENCHMARKS = ["bv-4", "qaoa-4"]
ENGINES = ["qgdp", "tetris"]


@pytest.fixture(scope="module")
def eval_config():
    return EvaluationConfig(num_seeds=3, config=QGDPConfig(gp_iterations=60))


@pytest.fixture(scope="module")
def spec(eval_config):
    return sweep_spec(TOPOLOGIES, BENCHMARKS, ENGINES, eval_config)


@pytest.fixture(scope="module")
def serial_cells(eval_config):
    return evaluate_fidelity(TOPOLOGIES, BENCHMARKS, ENGINES, eval_config)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("repro_cache"))


@pytest.fixture(scope="module")
def parallel_result(spec, cache_dir):
    return run_sweep(spec, cache_dir=cache_dir, workers=3)


def test_parallel_cached_sweep_is_bit_identical(serial_cells, parallel_result):
    assert set(parallel_result.cells) == set(serial_cells)
    for cell_id, cell in parallel_result.cells.items():
        serial = serial_cells[cell_id]
        assert cell["samples"] == serial.samples  # bit-equal, not approx
        assert cell["mean"] == serial.mean
        assert cell["minimum"] == serial.minimum
        assert cell["maximum"] == serial.maximum


def test_resume_recomputes_nothing(spec, cache_dir, parallel_result):
    resumed = run_sweep(spec, cache_dir=cache_dir, workers=3, resume=True)
    assert resumed.manifest["jobs"]["computed"] == 0
    assert resumed.manifest["jobs"]["cached"] == resumed.manifest["jobs"]["total"]
    assert resumed.manifest["jobs"]["total"] > 0
    assert resumed.cells == parallel_result.cells


def test_serial_resume_also_hits_cache(spec, cache_dir, parallel_result):
    resumed = run_sweep(spec, cache_dir=cache_dir, workers=1, resume=True)
    assert resumed.stats.computed == 0
    assert resumed.cells == parallel_result.cells


def test_shards_partition_and_union_to_full(spec, cache_dir, parallel_result):
    one = run_sweep(spec, cache_dir=cache_dir, resume=True, shard=(1, 2))
    two = run_sweep(spec, cache_dir=cache_dir, resume=True, shard=(2, 2))
    fidelity_one, fidelity_two = (
        {e["key"] for e in shard.stats.entries if e["kind"] == "fidelity"}
        for shard in (one, two)
    )
    assert fidelity_one and fidelity_two
    assert fidelity_one.isdisjoint(fidelity_two)
    assert set(one.cells).isdisjoint(two.cells)
    assert set(one.cells) | set(two.cells) == set(parallel_result.cells)
    merged = {**one.cells, **two.cells}
    assert merged == parallel_result.cells
    # Shards resumed from the shared cache recompute nothing.
    assert one.stats.computed == 0 and two.stats.computed == 0


def test_shard_validation(spec):
    with pytest.raises(ValueError):
        run_sweep(spec, shard=(0, 2))
    with pytest.raises(ValueError):
        run_sweep(spec, shard=(3, 2))


def test_manifest_records_spec_and_run_id(parallel_result, spec):
    manifest = parallel_result.manifest
    assert manifest["run_id"] == spec.spec_hash[:12]
    assert manifest["spec"]["topologies"] == list(TOPOLOGIES)
    assert manifest["spec"]["num_seeds"] == 3
    assert manifest["num_cells"] == len(parallel_result.cells)
    by_kind = manifest["jobs"]["by_kind"]
    assert set(by_kind) == {"gp", "lg", "transpile", "analyze", "fidelity"}
    # Analysis is shared per (topology, engine), not recomputed per cell.
    assert by_kind["analyze"]["computed"] == len(TOPOLOGIES) * len(ENGINES)


def test_detailed_sweep_matches_serial_harness(cache_dir):
    eval_config = EvaluationConfig(
        num_seeds=2, detailed=True, config=QGDPConfig(gp_iterations=60)
    )
    serial = evaluate_fidelity(["grid"], ["bv-4"], ["qgdp"], eval_config)
    spec = sweep_spec(["grid"], ["bv-4"], ["qgdp"], eval_config)
    swept = run_sweep(spec, cache_dir=cache_dir, workers=2)
    assert "dp" in swept.manifest["jobs"]["by_kind"]
    cell = swept.cells[("grid", "bv-4", "qgdp")]
    assert cell["samples"] == serial[("grid", "bv-4", "qgdp")].samples
    assert cell["mean"] == serial[("grid", "bv-4", "qgdp")].mean


def test_oversized_benchmarks_are_not_planned(eval_config):
    # qgan-9 needs 9 qubits and fits grid(25); a 100-qubit ask would not.
    spec = sweep_spec(["grid"], ["bv-16"], ["qgdp"], eval_config)
    result = run_sweep(spec)
    assert ("grid", "bv-16", "qgdp") in result.cells  # 16 fits the 25-qubit grid
