"""Dependency-aware job execution: serial, or across worker processes.

The jobs a run has to compute go on a private
:class:`~repro.orchestration.coordinator.FleetCoordinator` — the
scheduler fleets and ``repro serve`` lease from too — and one loop runs
what it leases: in the parent process, in graph (= topological) order,
for the serial mode (the reference semantics and the debugging mode),
or on a :class:`concurrent.futures.ProcessPoolExecutor`.  Because
runners are pure functions of (params, dependency payloads) and
payloads are canonicalized JSON, both modes produce byte-identical
payload sets — scheduling only changes wall-clock, never results.

Cache interaction: with ``resume=True``, jobs whose payload already
exists in the artifact store are not executed at all; they are counted
as *cached* in the returned :class:`RunStats` (the run-manifest counters
the resume acceptance test checks), and only the payloads the run reads
are decoded.  The executor only ever speaks the store's fetch/get/put
API — which persistence backend sits underneath
(directory, SQLite, a remote cache server, a tiered stack; see
:mod:`repro.orchestration.backends`) is invisible here, and the
backend-parity suite holds every backend to byte-identical results.

Wall-clock control: ``timeout_s`` bounds each job *attempt*.  The job is
executed in a forked child process the parent can actually terminate, so
a hung solver or runaway stage cannot wedge a sweep; a timed-out attempt
raises :class:`JobTimeout` and flows through the same retry / failure-log
plumbing as any other job exception.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.orchestration.coordinator import FleetCoordinator, ledger_row
from repro.orchestration.jobs import Job, JobGraph
from repro.orchestration.stages import execute_job
from repro.orchestration.store import ArtifactStore

#: The worker name local runs lease under; their failure rows carry it.
_LOCAL_WORKER = "local"


@dataclass
class RunStats:
    """What an executor run did: per-kind computed vs. cache-hit counts.

    ``entries`` is the per-job ledger written into the run manifest: one
    JSON-safe row per finished job (key, kind, the identifying params and
    whether it was computed or a cache hit).  ``repro diff`` compares two
    manifests through these rows to report added / removed / recomputed
    jobs between runs.

    ``failures`` is the run-manifest failure log: one JSON-safe entry per
    failed *attempt* (job key, kind, exception type, traceback string,
    the 1-based attempt number and the worker), so a retried-then-
    recovered flaky job still leaves its trace in the manifest, and a
    permanently failed job is fully attributable instead of vanishing
    into a bare exception.
    """

    total: int = 0
    computed: int = 0
    cached: int = 0
    wall_s: float = 0.0
    by_kind: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    entries: list = field(default_factory=list)

    def record(self, job: Job, cached: bool) -> None:
        """Count one finished job and append its manifest ledger row."""
        status = "cached" if cached else "computed"
        self.record_row(ledger_row(job.key, job.kind, job.params, status))

    def record_row(self, row: dict) -> None:
        """Count one ledger row by its ``status`` and append it."""
        slot = self.by_kind.setdefault(
            row["kind"], {"computed": 0, "cached": 0}
        )
        if row["status"] == "cached":
            self.cached += 1
            slot["cached"] += 1
        else:
            self.computed += 1
            slot["computed"] += 1
        self.entries.append(row)

    def to_dict(self) -> dict:
        """JSON-safe form for the run manifest."""
        return {
            "total": self.total,
            "computed": self.computed,
            "cached": self.cached,
            "wall_s": self.wall_s,
            "by_kind": self.by_kind,
            "failures": self.failures,
            "entries": self.entries,
        }


class JobFailure(RuntimeError):
    """A job failed on every allowed attempt and the run was aborted.

    Raised by :func:`run_jobs` (and therefore by
    :func:`~repro.orchestration.sweep.run_sweep` and the CLI commands
    built on it) once a job has exhausted ``retries`` extra attempts.
    Attributes:

    * ``job`` — the failing :class:`~repro.orchestration.jobs.Job`
      (kind, content key, params), so the failure is attributable without
      parsing the message;
    * ``failures`` — the run's accumulated failure log, one JSON-safe
      entry per failed attempt (the same rows a successful run would have
      written to the manifest's ``jobs.failures``; no manifest is written
      on an aborted run, so the log rides on the exception instead).

    Timed-out attempts (see ``timeout_s``) appear in the log with
    ``error_type: "JobTimeout"``.
    """

    def __init__(
        self,
        job: Job,
        cause: object,
        failures: Optional[list] = None,
    ) -> None:
        super().__init__(
            f"{job.kind} job {job.key[:12]} failed "
            f"({job.params.get('topology', '?')}): {cause}"
        )
        self.job = job
        self.failures = list(failures or [])


class JobTimeout(RuntimeError):
    """One job attempt exceeded the run's ``timeout_s`` wall-clock budget."""


def _child_execute(
    conn: multiprocessing.connection.Connection,
    kind: str,
    params: dict,
    deps: list,
) -> None:
    """Child-process entry point for timeout-bounded execution.

    Sends ``("ok", payload)`` or ``("error", exception, traceback_str)``
    over the pipe — tracebacks don't pickle, so the child formats its own
    and the parent re-attaches it for the failure log.  Runs the
    module-global ``execute_job`` so test monkeypatching (with the
    default fork start method) behaves exactly like the serial path.
    """
    try:
        payload = execute_job(kind, params, deps)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        formatted = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        try:
            conn.send(("error", exc, formatted))
        except Exception:
            # Unpicklable exception: forward type + message instead.
            conn.send(
                (
                    "error",
                    RuntimeError(f"{type(exc).__name__}: {exc}"),
                    formatted,
                )
            )
    else:
        conn.send(("ok", payload))
    finally:
        conn.close()


def execute_job_with_timeout(
    kind: str, params: dict, deps: list, timeout_s: Optional[float] = None
) -> dict:
    """Run one job in a child process, killing it after ``timeout_s``.

    ``ProcessPoolExecutor`` cannot interrupt a running task, so the only
    honest wall-clock bound is a dedicated child process the caller owns:
    the job runs in a fork, the parent waits on a pipe with a deadline,
    and on expiry the child is terminated and :class:`JobTimeout` raised.
    Job exceptions are forwarded with their original type so the failure
    log stays as attributable as the in-process path.  Runners are pure
    and payloads canonicalized, so the extra process hop cannot change
    results — only enforce the deadline.  ``timeout_s=None`` runs the
    job in-process instead, through the module-global ``execute_job``.
    """
    if timeout_s is None:
        return execute_job(kind, params, deps)
    ctx = multiprocessing.get_context()
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_execute, args=(send, kind, params, deps))
    proc.start()
    send.close()
    try:
        if not recv.poll(timeout_s):
            raise JobTimeout(
                f"{kind} job exceeded --timeout-s {timeout_s:g}s wall clock"
            )
        try:
            message = recv.recv()
        except EOFError:
            raise RuntimeError(
                f"{kind} job process died without a result"
            ) from None
    finally:
        if proc.is_alive():
            proc.terminate()
        proc.join()
        recv.close()
    if message[0] == "ok":
        return message[1]
    _status, exc, formatted = message
    exc.remote_traceback = formatted
    raise exc


def failure_report(exc: BaseException) -> dict:
    """The ``{error_type, error, traceback}`` a failed attempt reports."""
    # A timeout-wrapped job's exception crossed a process boundary,
    # where tracebacks don't pickle; the child formatted its own and
    # attached it so the log still points at the failing stage frame.
    formatted = getattr(exc, "remote_traceback", None) or "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return {
        "error_type": type(exc).__name__,
        "error": str(exc),
        "traceback": formatted,
    }


class _InlineExecutor(Executor):
    """The serial mode: runs each call at submit, returning a done future."""

    def submit(
        self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - delivered via the future
            future.set_exception(exc)
        return future


def _notify(
    progress: Optional[Callable], job: Job, status: str
) -> None:
    if progress is not None:
        progress(job, status)


def run_jobs(
    graph: JobGraph,
    store: ArtifactStore,
    workers: int = 0,
    resume: bool = False,
    progress: Optional[Callable] = None,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    outputs: Optional[Iterable[str]] = None,
) -> tuple:
    """Execute a job graph; returns ``(results, stats)``.

    ``results`` maps job key → payload for every key in ``outputs``
    (default: every job in the graph), in graph order; an unknown key
    raises :class:`ValueError`.  ``workers <= 1`` runs serially
    in-process; otherwise a process pool of that size is used.
    ``progress`` is an optional callable ``(job, status)`` with status
    in ``{"cached", "start", "done"}``.  ``retries`` re-runs a failing
    job up to that many extra times before raising :class:`JobFailure`;
    every failed attempt is logged in ``stats.failures`` (and on the
    raised exception), so one flaky worker no longer kills a sweep
    silently.  ``timeout_s`` bounds each job *attempt*'s wall clock
    (``None`` = unbounded): the job runs in a terminatable child process
    and an expired attempt raises :class:`JobTimeout`, which counts as a
    failed attempt for ``retries``.  Each attempt reports its own
    ``"start"``.

    With ``resume=True`` the run decodes only the payloads it reads:
    one batched :meth:`~repro.orchestration.store.ArtifactStore.fetch`
    finds which artifacts exist, then one pass in reverse graph order
    starts from the read set ``outputs``.  A job in the read set is
    cached when its payload decodes and pending otherwise; a job outside
    it is cached when it was fetched.  Every pending job adds its deps to
    the read set, so a missing or corrupt artifact is recomputed from
    decoded inputs, and a corrupt artifact nothing reads stays cached.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    t0 = time.perf_counter()
    ordered = graph.ordered()
    wanted = set(graph.jobs if outputs is None else outputs)
    unknown = wanted - graph.jobs.keys()
    if unknown:
        raise ValueError(f"outputs name unknown job {min(unknown)[:12]}")
    stats = RunStats(total=len(graph))
    results: Dict[str, dict] = {}

    found: Set[str] = (
        store.fetch([(job.kind, job.key) for job in ordered])
        if resume
        else set()
    )
    read = set(wanted)
    pending_keys: Set[str] = set()
    for job in reversed(ordered):
        if job.key not in found:
            pending_keys.add(job.key)
        elif job.key in read:
            payload = store.get(job.kind, job.key)
            if payload is None:
                pending_keys.add(job.key)  # corrupt: recompute
            else:
                results[job.key] = payload
        if job.key in pending_keys:
            read.update(job.deps)
    pending: List[Job] = []
    for job in ordered:
        if job.key in pending_keys:
            pending.append(job)
        else:
            stats.record(job, cached=True)
            _notify(progress, job, "cached")

    if pending:
        _run_uncached(
            graph, pending, results, store, stats, workers, progress,
            retries, timeout_s,
        )

    stats.wall_s = time.perf_counter() - t0
    # Pool completion order is scheduling-dependent; the manifest ledger
    # must not be, so entries are normalized to graph order.
    order = {job.key: index for index, job in enumerate(ordered)}
    stats.entries.sort(key=lambda entry: order[entry["key"]])
    outputs_in_order = [job.key for job in ordered if job.key in wanted]
    return {key: results[key] for key in outputs_in_order}, stats


def _run_uncached(
    graph: JobGraph,
    pending: List[Job],
    results: Dict[str, dict],
    store: ArtifactStore,
    stats: RunStats,
    workers: int,
    progress: Optional[Callable],
    retries: int,
    timeout_s: Optional[float],
) -> None:
    """Run ``pending`` (graph order) through a private coordinator.

    Each round leases a ready job per free slot (one in the serial mode,
    ``2 * workers`` in pool mode), submits it — inline for ``workers <=
    1``, else to a process pool — and reports the first attempt to
    finish.  Grants come in
    enqueue order, so the serial mode runs in graph order and retries a
    failed job at once.  Nothing else leases from the coordinator, so
    its leases never expire: a finite TTL would log a ``LeaseExpired``
    for a job outliving it and, in pool mode, lease it twice.

    A job failing at an attempt above ``retries`` aborts the run with
    :class:`JobFailure`.  A pool worker dying abruptly (SIGKILL, OOM —
    :class:`BrokenExecutor`) poisons the whole pool: every attempt in
    flight fails with ``BrokenProcessPool`` and a fresh pool is built.
    That breakage cannot be attributed to one job, so it aborts only at
    an attempt above ``retries + 1`` — one grace attempt, hence the
    coordinator's ``retries + 2`` budget — and a ``retries=0`` sweep
    survives a killed worker, while a job that *deterministically*
    kills its worker still aborts instead of rebuilding pools forever.
    """
    coordinator = FleetCoordinator(
        lease_ttl_s=math.inf, max_attempts=retries + 2
    )
    stats.failures = coordinator.failures
    uncached = {job.key for job in pending}
    coordinator.enqueue(
        # A cached dependency is satisfied already.
        {
            "kind": job.kind,
            "key": job.key,
            "params": job.params,
            "deps": [dep for dep in job.deps if dep in uncached],
        }
        for job in pending
    )
    pool: Executor = (
        _InlineExecutor()
        if workers <= 1
        else ProcessPoolExecutor(max_workers=workers)
    )
    in_flight: Dict[Future, Tuple[Job, int]] = {}  # future -> job, attempt
    # Twice the pool's size keeps every pool worker busy while the
    # parent reports a finished job and leases the next one.
    slots = 1 if workers <= 1 else 2 * workers

    def fail(job: Job, attempt: int, exc: BaseException, limit: int) -> None:
        coordinator.complete(
            _LOCAL_WORKER, job.key, "failed", error=failure_report(exc)
        )
        if attempt > limit:
            raise JobFailure(job, exc, failures=stats.failures) from exc

    try:
        while True:
            free = slots - len(in_flight)
            for lease in coordinator.lease(_LOCAL_WORKER, free)["jobs"]:
                job = graph[lease["key"]]
                _notify(progress, job, "start")
                deps = [results[dep] for dep in job.deps]
                try:
                    future = pool.submit(
                        execute_job_with_timeout,
                        job.kind,
                        job.params,
                        deps,
                        timeout_s,
                    )
                except BrokenExecutor as exc:
                    # The pool died between waits: this attempt fails
                    # with it, exactly like the attempts it was running.
                    future = Future()
                    future.set_exception(exc)
                in_flight[future] = (job, lease["attempt"])
            if not in_flight:
                return
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                if future not in in_flight:
                    continue  # already failed with its broken pool
                job, attempt = in_flight.pop(future)
                try:
                    payload = future.result()
                except BrokenExecutor as exc:
                    for victim, tried in [(job, attempt), *in_flight.values()]:
                        fail(victim, tried, exc, retries + 1)
                    in_flight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=workers)
                except Exception as exc:
                    fail(job, attempt, exc, retries)
                else:
                    results[job.key] = store.put(job.kind, job.key, payload)
                    stats.record(job, cached=False)
                    coordinator.complete(_LOCAL_WORKER, job.key, "computed")
                    _notify(progress, job, "done")
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
