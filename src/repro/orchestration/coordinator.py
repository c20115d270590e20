"""Lease-based work-stealing coordination for fleet sweeps.

The static ``--shard i/n`` split assumes every worker survives the whole
sweep; one killed machine strands its shard.  The
:class:`FleetCoordinator` replaces that with dynamic scheduling: a
submitter enqueues a planned job DAG once, workers *pull* ready jobs in
small leased batches, and the coordinator re-queues any job whose lease
expires without a heartbeat — a dead or hung worker costs one lease TTL,
not the sweep.

The protocol (served by ``repro serve-cache --fleet`` next to the
artifact endpoints; see :mod:`repro.orchestration.cache_server`):

=====================================  ====================================
``POST /v1/fleet/enqueue``             register a job DAG (idempotent)
``POST /v1/fleet/lease``               lease up to N ready jobs (TTL'd)
``POST /v1/fleet/heartbeat``           extend a worker's leases
``POST /v1/fleet/complete``            report computed/cached/failed/released
``GET  /v1/fleet/status``              progress counters + ledgers
=====================================  ====================================

Scheduling invariants (the hypothesis lease-lifecycle suite pins them):

* a job is never leased to two workers concurrently — an expired lease
  is revoked (and logged as a ``LeaseExpired`` failure) before the job
  becomes leasable again;
* a job is only leased once every dependency is done, so a worker can
  always read its dependency payloads from the shared artifact store;
* no job is ever lost: every enqueued job ends ``done`` or — after its
  attempt budget is spent — permanently ``failed``, with dependents of
  a failed job failed in cascade (``UpstreamFailed``) so a watcher
  polling :meth:`FleetCoordinator.status` always terminates.

Jobs are content-addressed (the same keys the artifact store uses), so
the scheduler is naturally idempotent: re-enqueueing a DAG is a no-op
for jobs already known, and a "late" completion from a worker whose
lease expired is accepted — the artifact it wrote is byte-identical to
the one the re-leased worker would write.  See ``docs/fleet.md``.
"""

from __future__ import annotations

import heapq
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.orchestration.backends import (
    DEFAULT_RETRY_POLICY,
    RETRYABLE_HTTP_STATUSES,
    RetryPolicy,
    StoreError,
    StoreUnavailable,
    http_request,
    retry_call,
)
from repro.orchestration.jobs import JobGraph

#: A job's scheduling states inside the coordinator.  ``cancelled`` is
#: terminal like ``done``/``failed``: a withdrawn job never runs and
#: never counts as outstanding.
JOB_STATES = ("pending", "ready", "leased", "done", "failed", "cancelled")


def state_counts(per_state: Dict[str, int]) -> dict:
    """Jobs per state plus their ``total`` and the ``outstanding`` ones."""
    counts = dict(per_state)
    counts["total"] = sum(per_state.values())
    counts["outstanding"] = (
        counts["total"] - counts["done"] - counts["failed"] - counts["cancelled"]
    )
    return counts


class FleetError(RuntimeError):
    """The fleet finished, but some jobs failed permanently.

    Carries the coordinator's ``failures`` ledger (one JSON-safe entry
    per failed attempt / expired lease, same rows as the run manifest's
    ``jobs.failures``) so a fleet abort is as attributable as a local
    :class:`~repro.orchestration.executor.JobFailure`.
    """

    def __init__(self, message: str, failures: Optional[list] = None) -> None:
        super().__init__(message)
        self.failures = list(failures or [])


def ledger_row(key: str, kind: str, params: dict, status: str) -> dict:
    """A finished job's ``jobs.entries`` row, for every kind of run.

    The job's key and kind, its identifying params and ``status``
    (``computed`` or ``cached``); fleet and service rows add ``worker``.
    """
    row = {"key": key, "kind": kind}
    for name in ("topology", "engine", "benchmark", "seed"):
        row[name] = params.get(name)
    row["status"] = status
    return row


def serialize_graph(graph: JobGraph) -> List[dict]:
    """A job graph as the JSON-safe rows ``enqueue`` accepts.

    Each row carries the dependency *kinds* next to the keys so a worker
    can fetch dependency payloads from the artifact store (backends are
    addressed by ``(kind, key)``) without holding the whole plan.
    """
    rows = []
    for job in graph.ordered():
        rows.append(
            {
                "kind": job.kind,
                "key": job.key,
                "params": job.params,
                "deps": list(job.deps),
                "dep_kinds": [graph[d].kind for d in job.deps],
            }
        )
    return rows


@dataclass
class _FleetJob:
    """One job's scheduling record inside the coordinator."""

    kind: str
    key: str
    params: dict
    deps: list
    dep_kinds: list
    seq: int  # enqueue order (a topological order): the grant order
    state: str = "pending"
    attempts: int = 0  # lease grants consumed so far
    worker: Optional[str] = None  # current lease holder
    deadline: Optional[float] = None  # lease expiry (coordinator clock)
    result: Optional[str] = None  # "computed" | "cached" once done

    def to_wire(self) -> dict:
        """The lease-response form a worker executes from."""
        return {
            "kind": self.kind,
            "key": self.key,
            "params": self.params,
            "deps": self.deps,
            "dep_kinds": self.dep_kinds,
            "attempt": self.attempts,
        }


class FleetCoordinator:
    """In-memory lease scheduler over a content-addressed job DAG.

    Thread-safe (one lock; served by the threading cache server).  Time
    is injectable for tests (``clock`` must be monotonic).  Lease expiry
    is evaluated lazily on every API call — no background reaper thread,
    so a test can drive the full expire/re-lease cycle deterministically
    by advancing its fake clock.

    ``lease_ttl_s`` is how long a worker may go without a heartbeat
    before its leases are revoked (``math.inf``: never — the local
    executor's private coordinator, whose jobs nothing else runs);
    ``max_attempts`` is the per-job lease budget (a lease that expires
    or fails consumes one attempt; a ``released`` job — graceful drain —
    refunds its attempt).

    Every state change goes through :meth:`_set_state`, which keeps the
    per-state counts, a ready heap in enqueue order and the leased-job
    map current; lease deadlines sit in a second heap.  So lease,
    complete, heartbeat and expiry touch only the jobs they act on,
    never every job.  A stale heap entry (its job left ``ready``, its
    lease ended or was extended) is skipped when it surfaces.
    """

    def __init__(
        self,
        lease_ttl_s: float = 60.0,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.lease_ttl_s = lease_ttl_s
        self.max_attempts = max_attempts
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs = {}  # guarded-by: _lock — key -> _FleetJob, topo order
        self._dependents = {}  # guarded-by: _lock — key -> [dependents]
        self._waiting = {}  # guarded-by: _lock — key -> unfinished deps
        self._workers = {}  # guarded-by: _lock — worker id -> last seen
        self._state_counts = dict.fromkeys(JOB_STATES, 0)  # guarded-by: _lock
        self._leased: Dict[str, _FleetJob] = {}  # guarded-by: _lock
        # Heaps of (seq, key) ready jobs and (deadline, seq, key) leases.
        self._ready: List[Tuple[int, str]] = []  # guarded-by: _lock
        self._deadlines: List[Tuple[float, int, str]] = []  # guarded-by: _lock
        self.failures = []  # guarded-by: _lock — failure ledger rows
        self.entries = []  # guarded-by: _lock — completion ledger rows

    # -- internals (lock held) --------------------------------------------
    def _set_state(self, job: _FleetJob, state: str) -> None:  # holds: _lock
        """Move ``job`` to ``state``, keeping every index current."""
        self._state_counts[job.state] -= 1
        self._state_counts[state] += 1
        if job.state == "leased":
            del self._leased[job.key]
            job.worker = None
            job.deadline = None
        job.state = state
        if state == "ready":
            heapq.heappush(self._ready, (job.seq, job.key))
        elif state == "leased":
            self._leased[job.key] = job

    def _extend(self, job: _FleetJob, now: float) -> None:  # holds: _lock
        """Start (or restart) ``job``'s lease clock at ``now``."""
        job.deadline = now + self.lease_ttl_s
        heapq.heappush(self._deadlines, (job.deadline, job.seq, job.key))

    def _log_failure(  # holds: _lock
        self, job: _FleetJob, error_type: str, error: str,
        worker: Optional[str], traceback_text: Optional[str] = None,
    ) -> None:
        self.failures.append(
            {
                "key": job.key,
                "kind": job.kind,
                "topology": job.params.get("topology"),
                "error_type": error_type,
                "error": error,
                "traceback": traceback_text or "",
                "attempt": job.attempts,
                "worker": worker,
            }
        )

    def _fail_permanently(self, job: _FleetJob) -> None:  # holds: _lock
        """Mark a job failed and cascade to its transitive dependents."""
        stack = [job.key]
        first = True
        while stack:
            key = stack.pop()
            record = self._jobs[key]
            if record.state in ("done", "failed", "cancelled"):
                continue
            self._set_state(record, "failed")
            if not first:
                self._log_failure(
                    record,
                    "UpstreamFailed",
                    f"dependency {job.kind} {job.key[:12]} failed permanently",
                    worker=None,
                )
            first = False
            stack.extend(self._dependents.get(key, ()))

    def _release_dependents(self, key: str) -> None:  # holds: _lock
        for dep_key in self._dependents.get(key, ()):
            child = self._jobs[dep_key]
            self._waiting[dep_key] -= 1
            if self._waiting[dep_key] == 0 and child.state == "pending":
                self._set_state(child, "ready")

    def _requeue(self, job: _FleetJob) -> None:  # holds: _lock
        """Put a revoked/failed lease back on the queue or fail it."""
        if job.attempts >= self.max_attempts:
            self._fail_permanently(job)
        else:
            self._set_state(job, "ready")

    def _expire(self, now: float) -> int:  # holds: _lock
        """Revoke expired leases; returns how many were revoked."""
        expired = 0
        while self._deadlines and self._deadlines[0][0] < now:
            deadline, _seq, key = heapq.heappop(self._deadlines)
            job = self._jobs[key]
            if job.state != "leased" or job.deadline != deadline:
                continue  # completed, revoked or extended since
            expired += 1
            self._log_failure(
                job,
                "LeaseExpired",
                f"lease expired after {self.lease_ttl_s:g}s without a "
                f"heartbeat from worker {job.worker!r}",
                worker=job.worker,
            )
            self._requeue(job)
        return expired

    def _counts(self) -> dict:  # holds: _lock
        return state_counts(self._state_counts)

    def _select_ready(self, max_jobs: int) -> List[_FleetJob]:  # holds: _lock
        """The ready jobs to lease next, in enqueue (= topo) order.

        Pops every job it returns off the ready heap, so the caller must
        lease each one.  The single scheduling-policy override point:
        the multi-tenant job service's fair scheduler replaces this with
        a round-robin pick across runs without re-implementing lease
        bookkeeping.
        """
        granted: List[_FleetJob] = []
        while self._ready and len(granted) < max_jobs:
            seq, key = heapq.heappop(self._ready)
            while self._ready and self._ready[0][0] == seq:
                heapq.heappop(self._ready)  # a duplicate entry, same job
            job = self._jobs[key]
            if job.state == "ready":
                granted.append(job)
        return granted

    # -- the five fleet verbs ---------------------------------------------
    def enqueue(self, jobs: Iterable[dict]) -> dict:
        """Register a job DAG; idempotent by content key.

        ``jobs`` are :func:`serialize_graph` rows in topological order
        (dependencies must appear before dependents, or already be
        known).  Jobs already registered are skipped — two submitters
        enqueueing overlapping DAGs share the overlap's work.
        """
        with self._lock:
            accepted = known = resurrected = 0
            for row in jobs:
                key = row["key"]
                existing = self._jobs.get(key)
                if existing is not None:
                    if existing.state == "cancelled":
                        # A withdrawn job a new submitter wants again:
                        # bring it back with a fresh attempt budget.
                        # Rows arrive in topo order, so cancelled deps
                        # were resurrected just above; the _dependents
                        # edges from the original registration are
                        # still in place (cancellation never removes
                        # them), only _waiting needs recomputing.
                        unfinished = [
                            d for d in existing.deps
                            if self._jobs[d].state != "done"
                        ]
                        self._waiting[key] = len(unfinished)
                        self._set_state(
                            existing, "pending" if unfinished else "ready"
                        )
                        existing.attempts = 0
                        resurrected += 1
                    else:
                        known += 1
                    continue
                deps = list(row.get("deps", ()))
                for dep in deps:
                    if dep not in self._jobs:
                        raise ValueError(
                            f"job {row['kind']}:{key[:12]} depends on "
                            f"unknown job {dep[:12]} (enqueue DAGs in "
                            "topological order)"
                        )
                job = _FleetJob(
                    kind=row["kind"],
                    key=key,
                    params=row.get("params", {}),
                    deps=deps,
                    dep_kinds=list(
                        row.get("dep_kinds")
                        or (self._jobs[d].kind for d in deps)
                    ),
                    seq=len(self._jobs),
                )
                unfinished = [
                    d for d in deps if self._jobs[d].state != "done"
                ]
                self._waiting[key] = len(unfinished)
                for dep in unfinished:
                    self._dependents.setdefault(dep, []).append(key)
                self._jobs[key] = job
                self._state_counts[job.state] += 1
                if not unfinished:
                    self._set_state(job, "ready")
                accepted += 1
                failed_dep = next(
                    (d for d in deps if self._jobs[d].state == "failed"),
                    None,
                )
                if failed_dep is not None:
                    # Enqueued under an already-dead upstream: fail it
                    # now so a watcher never waits on the unrunnable.
                    self._log_failure(
                        job,
                        "UpstreamFailed",
                        f"dependency {failed_dep[:12]} already failed "
                        "permanently",
                        worker=None,
                    )
                    self._fail_permanently(job)
            summary = self._counts()
            summary.update(
                {
                    "accepted": accepted,
                    "known": known,
                    "resurrected": resurrected,
                }
            )
            return summary

    def lease(self, worker: str, max_jobs: int = 1) -> dict:
        """Lease up to ``max_jobs`` ready jobs to ``worker``.

        Returns ``{"jobs": [...], "lease_ttl_s": ttl, "outstanding": n}``;
        an empty ``jobs`` with ``outstanding > 0`` means "poll again"
        (work is leased out or blocked), while ``outstanding == 0``
        means the fleet is finished and the worker may exit.
        """
        if max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {max_jobs}")
        with self._lock:
            now = self._clock()
            self._expire(now)
            self._workers[worker] = now
            granted = []
            for job in self._select_ready(max_jobs):
                self._set_state(job, "leased")
                job.worker = worker
                job.attempts += 1
                self._extend(job, now)
                granted.append(job.to_wire())
            counts = self._counts()
            return {
                "jobs": granted,
                "lease_ttl_s": self.lease_ttl_s,
                "outstanding": counts["outstanding"],
            }

    def heartbeat(self, worker: str) -> dict:
        """Extend every lease ``worker`` still holds; returns their keys.

        A worker whose leases already expired learns that here (the
        ``keys`` it gets back no longer include the revoked jobs); it
        may keep computing them — a late completion is accepted — but
        must expect another worker to finish first.
        """
        with self._lock:
            now = self._clock()
            self._expire(now)
            self._workers[worker] = now
            held = []
            for job in self._leased.values():
                if job.worker == worker:
                    self._extend(job, now)
                    held.append(job.key)
            return {"keys": held, "lease_ttl_s": self.lease_ttl_s}

    def complete(
        self,
        worker: str,
        key: str,
        status: str,
        error: Optional[dict] = None,
    ) -> dict:
        """Report the outcome of a leased job.

        ``status`` is one of ``computed`` / ``cached`` (success — the
        artifact is in the shared store), ``failed`` (the attempt
        failed; ``error`` carries ``{"error_type", "error",
        "traceback"}``), or ``released`` (graceful drain: the worker
        never started the job; its attempt is refunded).  A success is
        accepted even from a worker whose lease expired — content-
        addressed artifacts make duplicate completions byte-identical —
        and reported as ``{"result": "duplicate"}`` when the job was
        already done.
        """
        if status not in ("computed", "cached", "failed", "released"):
            raise ValueError(f"unknown completion status {status!r}")
        with self._lock:
            now = self._clock()
            self._expire(now)
            self._workers[worker] = now
            job = self._jobs.get(key)
            if job is None:
                raise ValueError(f"unknown job key {key[:12]}")
            if job.state == "done":
                return {"result": "duplicate", "outstanding":
                        self._counts()["outstanding"]}
            if job.state == "failed":
                # Permanently failed jobs stay failed: a late success
                # from an expired lease must not resurrect a DAG whose
                # dependents were already failed in cascade.
                return {"result": "already-failed", "outstanding":
                        self._counts()["outstanding"]}
            if job.state == "cancelled":
                # Withdrawn after this worker's lease expired; the run
                # that wanted the artifact is gone, so just acknowledge.
                return {"result": "cancelled", "outstanding":
                        self._counts()["outstanding"]}
            if status in ("computed", "cached"):
                self._set_state(job, "done")
                job.result = status
                row = ledger_row(key, job.kind, job.params, status)
                row["worker"] = worker
                self.entries.append(row)
                self._release_dependents(key)
            elif status == "failed":
                error = error or {}
                self._log_failure(
                    job,
                    error.get("error_type", "WorkerFailure"),
                    error.get("error", "worker reported failure"),
                    worker=worker,
                    traceback_text=error.get("traceback"),
                )
                self._requeue(job)
            else:  # released: graceful drain, refund the attempt
                if job.state == "leased" and job.worker == worker:
                    job.attempts = max(0, job.attempts - 1)
                    self._set_state(job, "ready")
            counts = self._counts()
            return {"result": status, "outstanding": counts["outstanding"]}

    def withdraw(self, keys: List[str]) -> dict:
        """Cancel queued (pending / ready) jobs; cascades to dependents.

        A job that is already leased, done, failed or cancelled is left
        alone — cancellation never interrupts a running worker and
        never un-does a terminal state.  Dependents of a cancelled job
        are cancelled in cascade (they could never run), which keeps
        the "every job reaches a terminal state" liveness invariant
        even when a caller withdraws a non-closed key set.  Callers
        multiplexing tenants (the job service) must only withdraw keys
        no other live run needs — content-addressed DAGs make the
        shared-ness check a set intersection on the callers' side.

        Returns ``{"cancelled": n, "skipped": m, "outstanding": k}``.
        """
        with self._lock:
            now = self._clock()
            self._expire(now)
            cancelled = skipped = 0
            stack = []
            for key in keys:
                job = self._jobs.get(key)
                if job is None:
                    raise ValueError(f"unknown job key {key[:12]}")
                stack.append(key)
            # Each job is judged once: a key reached both directly and
            # through the cascade must not inflate ``skipped`` (which
            # counts jobs that were genuinely leased/terminal already).
            seen: set = set()
            while stack:
                key = stack.pop()
                if key in seen:
                    continue
                seen.add(key)
                job = self._jobs[key]
                if job.state not in ("pending", "ready"):
                    skipped += 1
                    continue
                self._set_state(job, "cancelled")
                cancelled += 1
                stack.extend(self._dependents.get(key, ()))
            counts = self._counts()
            return {
                "cancelled": cancelled,
                "skipped": skipped,
                "outstanding": counts["outstanding"],
            }

    def status(self) -> dict:
        """Progress counters plus the completion / failure ledgers."""
        with self._lock:
            now = self._clock()
            self._expire(now)
            counts = self._counts()
            workers = {
                name: round(now - seen, 3)
                for name, seen in sorted(self._workers.items())
            }
            return {
                "counts": counts,
                "outstanding": counts["outstanding"],
                "lease_ttl_s": self.lease_ttl_s,
                "max_attempts": self.max_attempts,
                "workers": workers,  # id -> seconds since last seen
                "entries": list(self.entries),
                "failures": list(self.failures),
            }


class FleetClient:
    """HTTP client for the coordinator protocol (stdlib only).

    The five verbs of :class:`FleetCoordinator`, JSON over HTTP against
    a ``repro serve-cache --fleet`` server, with the same bounded
    retry/backoff policy remote stores use — a worker briefly unable to
    reach the coordinator backs off and retries instead of dying.
    Connection-level failures raise
    :class:`~repro.orchestration.backends.StoreUnavailable` once the
    budget is exhausted; protocol errors (a server without ``--fleet``,
    a malformed request) raise :class:`FleetError` immediately.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retry = retry or DEFAULT_RETRY_POLICY
        self._sleep = sleep
        # repro: lint-ignore[RPR001] RPC retry jitter must decorrelate
        # across workers; it never reaches a payload or content key
        self._rng = rng or random.Random()

    def _call(self, path: str, document: Optional[dict] = None) -> dict:
        url = f"{self.base_url}{path}"
        # repro: lint-ignore[RPR002] fleet RPC bodies are transport, not
        # content-keyed artifacts; field order is free
        body = None if document is None else json.dumps(document).encode()

        def attempt() -> Tuple[int, bytes]:
            status, payload = http_request(
                url, "GET" if body is None else "POST", body,
                timeout_s=self.timeout_s,
            )
            if status in RETRYABLE_HTTP_STATUSES:
                raise StoreUnavailable(f"coordinator {url}: HTTP {status}")
            return status, payload

        status, payload = retry_call(
            attempt, self.retry, sleep=self._sleep, rng=self._rng
        )
        try:
            parsed = json.loads(payload.decode("utf-8"))
        except ValueError:
            raise StoreError(
                f"coordinator {url}: invalid JSON response"
            ) from None
        if status != 200:
            raise FleetError(
                f"coordinator {url}: HTTP {status}: "
                f"{parsed.get('error', 'unknown error')}"
            )
        return parsed

    def enqueue(self, jobs: List[dict]) -> dict:
        """Register a serialized DAG (see :func:`serialize_graph`)."""
        return self._call("/v1/fleet/enqueue", {"jobs": jobs})

    def lease(self, worker: str, max_jobs: int = 1) -> dict:
        """Lease up to ``max_jobs`` ready jobs."""
        return self._call(
            "/v1/fleet/lease", {"worker": worker, "max_jobs": max_jobs}
        )

    def heartbeat(self, worker: str) -> dict:
        """Extend the worker's leases."""
        return self._call("/v1/fleet/heartbeat", {"worker": worker})

    def complete(
        self,
        worker: str,
        key: str,
        status: str,
        error: Optional[dict] = None,
    ) -> dict:
        """Report one job's outcome."""
        document = {"worker": worker, "key": key, "status": status}
        if error is not None:
            document["error"] = error
        return self._call("/v1/fleet/complete", document)

    def withdraw(self, keys: List[str]) -> dict:
        """Cancel queued jobs (see :meth:`FleetCoordinator.withdraw`)."""
        return self._call("/v1/fleet/withdraw", {"keys": keys})

    def status(self) -> dict:
        """The coordinator's progress counters and ledgers."""
        return self._call("/v1/fleet/status")

