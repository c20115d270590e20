"""Executor semantics: serial/parallel equivalence, caching, failure."""

import itertools
import time

import pytest

import repro.orchestration.executor as executor_module
from repro.core.config import QGDPConfig
from repro.orchestration import (
    ArtifactStore,
    FleetCoordinator,
    Job,
    JobFailure,
    JobGraph,
    config_to_dict,
    run_jobs,
)
from repro.orchestration.stages import execute_job as real_execute_job

_CFG = config_to_dict(QGDPConfig(gp_iterations=40))


def _small_graph():
    graph = JobGraph()
    gp = graph.add(
        Job.create(
            "gp", {"topology": "grid", "config": _CFG, "seed": _CFG["seed"]}
        )
    )
    for engine in ("qgdp", "tetris"):
        graph.add(
            Job.create(
                "lg",
                {"topology": "grid", "engine": engine, "config": _CFG},
                deps=(gp.key,),
            )
        )
    for seed in (11, 988):
        graph.add(
            Job.create(
                "transpile",
                {"topology": "grid", "benchmark": "bv-4", "seeds": [seed]},
            )
        )
    return graph


_WALLCLOCK_KEYS = ("runtime_s", "qubit_time_s", "resonator_time_s", "dp_time_s")


def _strip_timings(payloads):
    return {
        key: {k: v for k, v in payload.items() if k not in _WALLCLOCK_KEYS}
        for key, payload in payloads.items()
    }


def test_parallel_results_equal_serial():
    graph = _small_graph()
    serial, serial_stats = run_jobs(graph, ArtifactStore(), workers=1)
    parallel, parallel_stats = run_jobs(graph, ArtifactStore(), workers=3)
    # Bit-identical payloads key for key; only wall-clock fields may vary.
    assert _strip_timings(serial) == _strip_timings(parallel)
    assert list(serial) == [j.key for j in graph.ordered()]
    assert list(parallel) == list(serial)
    assert serial_stats.computed == len(graph)
    assert parallel_stats.computed == len(graph)


def test_resume_uses_cache(tmp_path):
    graph = _small_graph()
    store = ArtifactStore(str(tmp_path / "cache"))
    first, first_stats = run_jobs(graph, store, workers=1)
    assert first_stats.computed == len(graph) and first_stats.cached == 0

    fresh_store = ArtifactStore(str(tmp_path / "cache"))
    second, second_stats = run_jobs(graph, fresh_store, workers=1, resume=True)
    assert second_stats.computed == 0
    assert second_stats.cached == len(graph)
    assert second == first


def test_without_resume_cache_is_ignored(tmp_path):
    graph = _small_graph()
    store = ArtifactStore(str(tmp_path / "cache"))
    run_jobs(graph, store, workers=1)
    _, stats = run_jobs(graph, ArtifactStore(str(tmp_path / "cache")), workers=1)
    assert stats.computed == len(graph)
    assert stats.cached == 0


def test_stats_count_by_kind():
    graph = _small_graph()
    _, stats = run_jobs(graph, ArtifactStore(), workers=1)
    assert stats.by_kind["gp"]["computed"] == 1
    assert stats.by_kind["lg"]["computed"] == 2
    assert stats.by_kind["transpile"]["computed"] == 2
    assert stats.to_dict()["total"] == len(graph)


def test_failing_job_raises_jobfailure():
    graph = JobGraph()
    graph.add(
        Job.create(
            "transpile",
            {"topology": "grid", "benchmark": "no-such-99", "seeds": [1]},
        )
    )
    with pytest.raises(JobFailure):
        run_jobs(graph, ArtifactStore(), workers=1)


def _bad_job_graph():
    graph = JobGraph()
    graph.add(
        Job.create(
            "transpile",
            {"topology": "grid", "benchmark": "no-such-99", "seeds": [1]},
        )
    )
    return graph


def test_retries_recover_flaky_jobs(monkeypatch):
    graph = _small_graph()
    state = {"gp_failures": 0}

    def flaky(kind, params, deps):
        if kind == "gp" and state["gp_failures"] < 2:
            state["gp_failures"] += 1
            raise RuntimeError("flaky worker")
        return real_execute_job(kind, params, deps)

    monkeypatch.setattr(executor_module, "execute_job", flaky)
    results, stats = run_jobs(graph, ArtifactStore(), workers=1, retries=2)

    assert stats.computed == len(graph)
    assert len(results) == len(graph)
    # Both flaky attempts are in the manifest failure log.
    assert [f["attempt"] for f in stats.failures] == [1, 2]
    for entry in stats.failures:
        assert entry["kind"] == "gp"
        assert entry["error_type"] == "RuntimeError"
        assert entry["error"] == "flaky worker"
        assert "flaky worker" in entry["traceback"]
        assert entry["key"]
    assert stats.to_dict()["failures"] == stats.failures


def test_exhausted_retries_raise_with_failure_log():
    with pytest.raises(JobFailure) as info:
        run_jobs(_bad_job_graph(), ArtifactStore(), workers=1, retries=1)
    failures = info.value.failures
    assert [f["attempt"] for f in failures] == [1, 2]
    assert all(f["kind"] == "transpile" for f in failures)
    assert all(f["key"] == info.value.job.key for f in failures)


def test_negative_retries_rejected():
    # A negative count would skip execution entirely and store a stale
    # payload; it must be rejected up front.
    with pytest.raises(ValueError):
        run_jobs(_small_graph(), ArtifactStore(), workers=1, retries=-1)


def test_pool_exhausted_retries_raise_with_failure_log():
    with pytest.raises(JobFailure) as info:
        run_jobs(_bad_job_graph(), ArtifactStore(), workers=2, retries=1)
    assert [f["attempt"] for f in info.value.failures] == [1, 2]


class _FakeBrokenPool:
    """A pool whose workers die abruptly: every future (or, after
    ``break_submits`` more calls, every submission) raises
    BrokenProcessPool — the SIGKILL/OOM failure mode, minus the corpse."""

    instances = 0  # rebuilt-pool counter, reset per test

    def __init__(self, max_workers):
        type(self).instances += 1

    def submit(self, fn, *args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        future = Future()
        future.set_exception(BrokenProcessPool("worker died abruptly"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_always_broken_pool_aborts_with_jobfailure(monkeypatch):
    """A pool that breaks on every rebuild must exhaust the job's attempt
    budget and abort with JobFailure (carrying the failure log) — not
    leak a raw BrokenExecutor, and not rebuild pools forever."""
    _FakeBrokenPool.instances = 0
    monkeypatch.setattr(
        executor_module, "ProcessPoolExecutor", _FakeBrokenPool
    )
    with pytest.raises(JobFailure) as info:
        run_jobs(_bad_job_graph(), ArtifactStore(), workers=2, retries=3)
    # retries + 1 grace attempts were all granted and all logged.
    assert [f["attempt"] for f in info.value.failures] == [1, 2, 3, 4, 5]
    assert info.value.failures[0]["error_type"] == "BrokenProcessPool"
    # Each break tore the dead pool down and built a fresh one.
    assert _FakeBrokenPool.instances == 5


def test_broken_pool_is_rebuilt_and_run_continues(monkeypatch):
    """One abrupt worker death must cost a failure-log entry and a pool
    rebuild, not the sweep: the job is resubmitted to a fresh pool and
    the remaining DAG completes even with retries=0."""
    from concurrent.futures import ProcessPoolExecutor as RealPool

    class BreaksOnce(_FakeBrokenPool):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self._real = None if type(self).instances == 1 else RealPool(
                max_workers=max_workers
            )

        def submit(self, fn, *args):
            if self._real is None:
                return super().submit(fn, *args)
            return self._real.submit(fn, *args)

        def shutdown(self, wait=True, cancel_futures=False):
            if self._real is not None:
                self._real.shutdown(wait=wait, cancel_futures=cancel_futures)

    BreaksOnce.instances = 0
    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", BreaksOnce)
    graph = _small_graph()
    results, stats = run_jobs(graph, ArtifactStore(), workers=2)
    assert len(results) == len(graph)
    assert stats.computed == len(graph)
    assert BreaksOnce.instances == 2  # the dead pool plus its replacement
    # Every job in flight when the pool broke left a ledger entry.
    assert stats.failures
    assert {f["error_type"] for f in stats.failures} == {"BrokenProcessPool"}


def test_progress_events_cover_every_job():
    graph = _small_graph()
    events = []
    run_jobs(
        graph,
        ArtifactStore(),
        workers=1,
        progress=lambda job, status: events.append((job.kind, status)),
    )
    assert sum(1 for _, s in events if s == "start") == len(graph)
    assert sum(1 for _, s in events if s == "done") == len(graph)


def test_serial_attempts_start_in_graph_order(monkeypatch):
    """Serial jobs start in graph order, and a failed attempt is retried
    at once: one ``"start"`` per attempt, its failure row by ``local``."""
    graph = _small_graph()
    state = {"failed": False}

    def first_lg_fails_once(kind, params, deps):
        if kind == "lg" and not state["failed"]:
            state["failed"] = True
            raise RuntimeError("flaky worker")
        return real_execute_job(kind, params, deps)

    monkeypatch.setattr(executor_module, "execute_job", first_lg_fails_once)
    started = []
    _, stats = run_jobs(
        graph,
        ArtifactStore(),
        workers=1,
        retries=1,
        progress=lambda job, status: (
            started.append(job.key) if status == "start" else None
        ),
    )
    keys = [job.key for job in graph.ordered()]
    assert started == keys[:2] + keys[1:]  # the first lg job, twice
    assert [(f["attempt"], f["worker"]) for f in stats.failures] == [
        (1, "local")
    ]


def test_local_leases_never_expire(monkeypatch):
    """A job outliving any finite lease TTL must not be revoked: nothing
    else runs a local sweep's jobs, so its coordinator's leases are
    unbounded and its failure ledger stays empty."""

    class HourPerCall(FleetCoordinator):
        def __init__(self, **kwargs):
            ticks = itertools.count(step=3600.0)
            super().__init__(clock=lambda: next(ticks), **kwargs)

    monkeypatch.setattr(executor_module, "FleetCoordinator", HourPerCall)
    graph = _small_graph()
    _, stats = run_jobs(graph, ArtifactStore(), workers=1)
    assert stats.computed == len(graph)
    assert stats.failures == []


# -- job-level wall-clock timeouts -------------------------------------------
# The timeout wrapper forks a child that runs the module-global
# execute_job, so (with the default fork start method) monkeypatching
# executor_module.execute_job reaches the child exactly like the serial
# path — and pool workers created after the patch inherit it too.


def _sleeping(kind, params, deps):
    import time as _time

    _time.sleep(60)
    return real_execute_job(kind, params, deps)


def test_timeout_kills_hung_job_serially(monkeypatch):
    monkeypatch.setattr(executor_module, "execute_job", _sleeping)
    t0 = time.perf_counter()
    with pytest.raises(JobFailure) as info:
        run_jobs(_bad_job_graph(), ArtifactStore(), workers=1, timeout_s=0.5)
    assert time.perf_counter() - t0 < 30
    assert info.value.failures[0]["error_type"] == "JobTimeout"


def test_timeout_kills_hung_job_in_pool(monkeypatch):
    monkeypatch.setattr(executor_module, "execute_job", _sleeping)
    t0 = time.perf_counter()
    with pytest.raises(JobFailure) as info:
        run_jobs(_bad_job_graph(), ArtifactStore(), workers=2, timeout_s=0.5)
    assert time.perf_counter() - t0 < 30
    assert info.value.failures[0]["error_type"] == "JobTimeout"


def test_timeout_generous_budget_is_bit_identical():
    graph = _small_graph()
    plain, _ = run_jobs(graph, ArtifactStore(), workers=1)
    timed, stats = run_jobs(
        graph, ArtifactStore(), workers=1, timeout_s=600.0
    )
    assert _strip_timings(timed) == _strip_timings(plain)
    assert stats.computed == len(graph)


def test_timeout_attempts_count_against_retries(tmp_path, monkeypatch):
    flag = tmp_path / "first-attempt-done"

    def slow_once(kind, params, deps):
        import time as _time

        if kind == "gp" and not flag.exists():
            flag.touch()
            _time.sleep(60)
        return real_execute_job(kind, params, deps)

    monkeypatch.setattr(executor_module, "execute_job", slow_once)
    graph = _small_graph()
    results, stats = run_jobs(
        graph, ArtifactStore(), workers=1, retries=1, timeout_s=5.0
    )
    assert stats.computed == len(graph)
    assert len(results) == len(graph)
    assert [f["error_type"] for f in stats.failures] == ["JobTimeout"]
    assert stats.failures[0]["attempt"] == 1


def test_timeout_preserves_job_error_types_and_traceback():
    # A failing (not hanging) job under a timeout must still report its
    # original exception type — and the failing stage's traceback frames,
    # which don't pickle and are forwarded as a formatted string instead.
    with pytest.raises(JobFailure) as info:
        run_jobs(_bad_job_graph(), ArtifactStore(), workers=1, timeout_s=30.0)
    entry = info.value.failures[0]
    assert entry["error_type"] == "KeyError"
    assert "registry" in entry["traceback"]  # the frame that actually raised


def test_invalid_timeout_rejected():
    for bad in (0, -1.0):
        with pytest.raises(ValueError):
            run_jobs(_small_graph(), ArtifactStore(), workers=1, timeout_s=bad)


def test_run_stats_entries_ledger(tmp_path):
    graph = _small_graph()
    store = ArtifactStore(str(tmp_path / "cache"))
    _, first = run_jobs(graph, store, workers=1)
    assert len(first.entries) == len(graph)
    assert {e["status"] for e in first.entries} == {"computed"}
    assert {e["key"] for e in first.entries} == set(graph.jobs)
    assert first.to_dict()["entries"] == first.entries

    _, second = run_jobs(
        graph,
        ArtifactStore(str(tmp_path / "cache")),
        workers=1,
        resume=True,
    )
    assert {e["status"] for e in second.entries} == {"cached"}
    entry = second.entries[0]
    assert set(entry) == {
        "key", "kind", "topology", "engine", "benchmark", "seed", "status"
    }


def test_entries_ledger_is_in_graph_order_even_with_pool():
    graph = _small_graph()
    _, stats = run_jobs(graph, ArtifactStore(), workers=3)
    assert [e["key"] for e in stats.entries] == [j.key for j in graph.ordered()]
