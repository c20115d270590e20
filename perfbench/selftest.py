"""Tests of the benchmark itself, at minimal size.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

Each workload is smoke-run on a tiny input through the same measuring
code as a real run, the metric names and units are compared with
``BENCHMARK.json``, and every correctness check is shown to fire on a
deliberately corrupted output.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import probe as host_probe  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_SPEC = dict(
    topologies=("grid",), benchmarks=("bv-4",), engines=("qgdp", "tetris"), num_seeds=2
)


def declared(section: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for entry in spec[section]}


def small_flow(seed: int = 0) -> workloads.FlowWorkload:
    return workloads.FlowWorkload(seed, side=4)


def small_sweep(tmp_path: Path, warm: bool, seed: int = 0) -> workloads.SweepWorkload:
    workload = workloads.SweepWorkload(
        seed, warm=warm, spec=workloads.paper_spec(seed, **SMALL_SPEC)
    )
    workload.setup(tmp_path)
    assert workload.check_setup() == []
    return workload


@pytest.fixture
def probe(tmp_path):
    started = host_probe.HostProbe(tmp_path / "probe.bin")
    started.start()
    yield started
    started.stop()


def test_benchmark_json_matches_the_emitted_metrics():
    assert [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())[
        "workloads"]] == list(bench.WORKLOADS)
    assert {n: e["unit"] for n, e in declared("end_to_end").items()} == bench.END_TO_END
    assert {n: (e["unit"], e["better"]) for n, e in declared("per_layer").items()} == (
        bench.per_layer_units()
    )


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("trace", [False, True])
def test_sweep_smoke_run_reports_every_metric(tmp_path, probe, warm, trace):
    workload = small_sweep(tmp_path, warm)
    loops, metrics, units = bench.measure(workload, 0.0, trace, 1.0, probe)[:3]
    assert all(loop.failed == 0 for loop in loops), [m for l in loops for m in l.messages]
    expected = declared("per_layer" if trace else "end_to_end")
    assert set(metrics) == set(expected)
    assert all(units[name] == expected[name]["unit"] for name in metrics)
    if trace:
        assert metrics["orch.cache.hit_ratio"] == (1.0 if warm else 0.0)
        assert metrics["trace.unattributed_share"] < 0.5
    else:
        assert 0.0 < metrics["qgdp_fidelity_gmean"] < 1.0


@pytest.mark.parametrize("trace", [False, True])
def test_flow_smoke_run_reports_every_metric(tmp_path, probe, trace):
    workload = small_flow()
    workload.setup(tmp_path)
    loops, metrics, units = bench.measure(workload, 0.0, trace, 1.0, probe)[:3]
    assert all(loop.failed == 0 for loop in loops)
    expected = declared("per_layer" if trace else "end_to_end")
    assert set(metrics) == set(expected)
    if trace:
        assert metrics["metrics.layout.calls"] == 2
        assert metrics["gp.s"] > 0
    else:
        assert metrics["op_p50_ref_s"] > 0


def test_probe_window_scales_by_the_kernel_speed(tmp_path):
    probe = host_probe.HostProbe(tmp_path / "unused")  # no process: samples by hand
    probe.shared = bytearray(
        host_probe._HEADER.size + host_probe.CAPACITY * host_probe._PAIR.size
    )

    def record(spent):
        count = probe.count()
        offset = host_probe._HEADER.size + count * host_probe._PAIR.size
        host_probe._PAIR.pack_into(probe.shared, offset, time.perf_counter(), spent)
        host_probe._HEADER.pack_into(probe.shared, 0, count + 1)

    record(4 * host_probe.REF_KERNEL_S)  # before the window
    with probe.window() as window:
        record(2 * host_probe.REF_KERNEL_S)  # a host at half speed
    assert window.scaled == pytest.approx(window.wall / 2)
    with probe.window() as empty:
        pass  # no sample of its own: scaled by the latest ones
    assert empty.scaled == pytest.approx(empty.wall / 3)


def test_probe_process_samples_and_is_stopped(probe):
    count = probe.count()
    time.sleep(4 * host_probe.INTERVAL_S)
    assert probe.count() > count
    process = probe.process
    probe.stop()
    assert process.poll() is not None
    assert probe.process is None


def test_tracer_restores_every_wrapped_site():
    def current():
        return [getattr(tracing._resolve(t), a) for t, a, _, _ in tracing.SITES]

    originals = current()
    tracer = tracing.Tracer()
    tracer.install()
    assert all(new is not old for new, old in zip(current(), originals))
    tracer.uninstall()
    assert current() == originals


# -- every check fires on a corrupted output ---------------------------------
def flow_output(tmp_path):
    workload = small_flow()
    workload.setup(tmp_path)
    result = workload.op()
    assert workload.check(result) == []
    return workload, result


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda m: m.update(legality_violations=1), "legality_violations"),
        (lambda m: m.update(spacing_violations=2), "spacing_violations"),
        (lambda m: m.update(unified=m["total_resonators"] - 1), "unified"),
    ],
)
def test_flow_metric_checks_fire(tmp_path, corrupt, message):
    workload, result = flow_output(tmp_path)
    bad = copy.deepcopy(result)
    corrupt(bad.final.metrics)
    assert any(message in f for f in workload.check(bad))


def test_flow_determinism_and_expected_digest_checks_fire(tmp_path):
    workload, result = flow_output(tmp_path)
    bad = copy.deepcopy(result)
    node = next(iter(bad.final.positions))
    x, y = bad.final.positions[node]
    bad.final.positions[node] = (x + 1.0, y)
    assert any("differs from first op" in f for f in workload.check(bad))
    workload.expected_digest = "0" * 64
    assert any("expected.json" in f for f in workload.check(result))


def cold_output(tmp_path):
    workload = small_sweep(tmp_path, warm=False)
    output = workload.op()
    assert workload.check(output) == []
    return workload, output


def test_cold_golden_layout_check_fires(tmp_path):
    workload, (result, store) = cold_output(tmp_path)
    dp_key = next(k for k in store.layouts if workload.jobs[k].kind == "dp")
    store.layouts[dp_key] = copy.deepcopy(store.layouts[dp_key])
    store.layouts[dp_key][0][2] += 1.0
    failures = workload.check((result, store))
    assert any("golden baseline" in f for f in failures)
    assert any("differ from the first op" in f for f in failures)
    workload.release((result, store))


def test_cold_sample_count_and_rows_checks_fire(tmp_path):
    workload, (result, store) = cold_output(tmp_path)
    cell = next(iter(result.cells.values()))
    cell["samples"] = cell["samples"][:-1]
    failures = workload.check((result, store))
    assert any("lack 2 samples" in f for f in failures)
    assert any("differ from the first op" in f for f in failures)
    workload.expected_rows = "0" * 64
    assert any("expected.json" in f for f in workload.check((result, store)))
    workload.release((result, store))


def test_cold_legality_check_fires(tmp_path):
    workload = small_sweep(tmp_path, warm=False)
    result, store = workload.op()
    key = next(k for k in store.layouts if workload.jobs[k].kind == "dp")
    rows = copy.deepcopy(store.layouts[key])
    rows[1][2:4] = rows[0][2:4]  # stack the second qubit on the first
    store.layouts[key] = rows
    failures = workload.check((result, store))
    assert any("illegal" in f for f in failures)
    workload.release((result, store))


def test_warm_checks_fire(tmp_path):
    workload = small_sweep(tmp_path, warm=True)
    result, store = workload.op()
    assert workload.check((result, store)) == []
    result.stats.computed = 1
    cell = next(iter(result.cells.values()))
    cell["mean"] += 1e-9
    failures = workload.check((result, store))
    assert any("computed 1 jobs" in f for f in failures)
    assert any("differ from the cold rows" in f for f in failures)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    import subprocess

    bench_copy = tmp_path / "perfbench"
    bench_copy.mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (bench_copy / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid24_flow"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
