"""The fleet worker: a pull–execute–heartbeat loop over the job store.

``repro worker --coordinator URL`` runs this loop: lease a batch of
ready jobs from the :class:`~repro.orchestration.coordinator
.FleetCoordinator`, execute each through the exact same
:func:`~repro.orchestration.stages.execute_job` /
:class:`~repro.orchestration.store.ArtifactStore` plumbing a local
sweep uses (so fleet results are byte-identical to serial ones),
report completions, repeat.  A background heartbeat thread keeps the
worker's leases alive while a long job runs; if the process dies —
SIGKILL, OOM, a yanked power cord — the heartbeats stop, the leases
expire, and the coordinator re-queues the jobs for someone else.

Fault tolerance on the worker side:

* every store operation runs under a bounded-backoff retry
  (:func:`~repro.orchestration.backends.retry_call`), so a transient
  cache-server blip costs a sleep, not a failed attempt;
* a job that still fails is reported with its traceback and the
  coordinator decides (re-queue vs. permanent failure) — the worker
  keeps draining the queue;
* SIGTERM requests a graceful drain: the in-flight job finishes and is
  reported, leased-but-unstarted jobs are *released* (their attempt is
  refunded), and the loop exits cleanly.

See ``docs/fleet.md`` for the failure model and a two-machine
walkthrough.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.orchestration.backends import (
    RetryPolicy,
    StoreUnavailable,
    retry_call,
)
from repro.orchestration.coordinator import FleetClient, FleetCoordinator
from repro.orchestration.executor import (
    execute_job_with_timeout,
    failure_report,
)
from repro.orchestration.store import ArtifactStore


class DependencyUnavailable(RuntimeError):
    """A leased job's dependency payload was missing from the store.

    The coordinator only leases jobs whose dependencies completed, so
    this means the shared store lost (or never received — e.g. a
    degraded tiered write during an outage) the upstream artifact; the
    attempt is reported as failed and the coordinator re-queues it.
    """


def default_worker_id() -> str:
    """A fleet-unique worker name: host, pid and a random suffix."""
    return (
        f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    )


@dataclass
class WorkerStats:
    """What one :func:`run_worker` loop did (JSON-safe via ``to_dict``)."""

    worker: str = ""
    computed: int = 0
    cached: int = 0
    failed: int = 0
    released: int = 0
    leases: int = 0
    store_retries: int = 0
    wall_s: float = 0.0
    drained: bool = False  # exited on SIGTERM/stop rather than idle

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "computed": self.computed,
            "cached": self.cached,
            "failed": self.failed,
            "released": self.released,
            "leases": self.leases,
            "store_retries": self.store_retries,
            "wall_s": self.wall_s,
            "drained": self.drained,
        }


class _Heartbeat:
    """Background lease-keepalive: one thread, stoppable, crash-proof."""

    def __init__(
        self,
        client: Union[FleetClient, FleetCoordinator],
        worker: str,
        interval_s: float,
    ) -> None:
        self._client = client
        self._worker = worker
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self._client.heartbeat(self._worker)
            except Exception:  # noqa: BLE001 - keepalive must not die
                # Transient coordinator trouble: the next beat retries;
                # if the outage outlives the lease TTL the coordinator
                # re-queues our jobs, which is the correct outcome.
                pass

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def run_worker(
    coordinator: Union[str, FleetClient, FleetCoordinator],
    store: ArtifactStore,
    worker_id: Optional[str] = None,
    batch_size: int = 1,
    poll_s: float = 1.0,
    heartbeat_s: Optional[float] = None,
    timeout_s: Optional[float] = None,
    store_retry: Optional[RetryPolicy] = None,
    exit_when_idle: bool = True,
    stop: Optional[threading.Event] = None,
    install_signal_handler: bool = False,
    progress: Optional[Callable] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> WorkerStats:
    """Pull, execute and report fleet jobs until done (or told to stop).

    ``coordinator`` is a ``repro serve-cache --fleet`` URL, an
    existing :class:`FleetClient`, or an in-process
    :class:`FleetCoordinator` (the job service's worker threads lease
    from theirs directly, with no HTTP in the path); ``store`` is the
    *shared* artifact store the fleet reads dependency payloads from
    and writes results to (typically a
    :class:`~repro.orchestration.store.TieredStore`
    over the same server).  ``batch_size`` jobs are leased per round;
    ``timeout_s`` bounds each job's wall clock exactly like a local
    sweep's ``--timeout-s`` (enforced in a terminatable child process).

    Exits when the coordinator reports no outstanding work (unless
    ``exit_when_idle=False``, the long-lived service mode) or when
    ``stop`` is set — by a caller, or by SIGTERM when
    ``install_signal_handler=True``: the in-flight job finishes, every
    unstarted lease is released back (attempt refunded), and the
    accumulated :class:`WorkerStats` (with ``drained=True``) returns.

    ``progress(event, job)`` is called with events in ``{"lease",
    "computed", "cached", "failed", "released"}`` — the chaos suite's
    SIGKILL choreography hangs off it.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    client = (
        FleetClient(coordinator) if isinstance(coordinator, str) else coordinator
    )
    stats = WorkerStats(worker=worker_id or default_worker_id())
    stop = stop or threading.Event()
    if install_signal_handler:
        signal.signal(signal.SIGTERM, lambda _sig, _frm: stop.set())
    store_retry = store_retry or RetryPolicy()
    # repro: lint-ignore[RPR001] lease-poll jitter must decorrelate
    # across workers; it never reaches a payload or content key
    rng = random.Random()

    def count_retry(_failures: int, _exc: BaseException) -> None:
        stats.store_retries += 1

    def store_op(operation: Callable) -> object:
        """A store call under the worker's transient-fault budget."""
        return retry_call(
            operation,
            store_retry,
            sleep=sleep,
            rng=rng,
            on_retry=count_retry,
        )

    def notify(event: str, job: dict) -> None:
        if progress is not None:
            progress(event, job)

    def run_one(job: dict) -> None:
        kind, key = job["kind"], job["key"]
        try:
            cached = store_op(lambda: store.get(kind, key))
            if cached is not None:
                client.complete(stats.worker, key, "cached")
                stats.cached += 1
                notify("cached", job)
                return
            deps = []
            for dep_kind, dep_key in zip(job["dep_kinds"], job["deps"]):
                payload = store_op(lambda: store.get(dep_kind, dep_key))
                if payload is None:
                    raise DependencyUnavailable(
                        f"{kind} {key[:12]}: dependency {dep_kind} "
                        f"{dep_key[:12]} is not in the store "
                        f"({store.describe()})"
                    )
                deps.append(payload)
            payload = execute_job_with_timeout(
                kind, job["params"], deps, timeout_s
            )
            store_op(lambda: store.put(kind, key, payload))
            client.complete(stats.worker, key, "computed")
            stats.computed += 1
            notify("computed", job)
        except StoreUnavailable:
            raise  # the coordinator/store is gone: surface, don't loop
        except Exception as exc:  # noqa: BLE001 - reported, not fatal
            client.complete(
                stats.worker, key, "failed", error=failure_report(exc)
            )
            stats.failed += 1
            notify("failed", job)

    t0 = time.perf_counter()
    heartbeat: Optional[_Heartbeat] = None
    try:
        while not stop.is_set():
            reply = client.lease(stats.worker, max_jobs=batch_size)
            jobs = reply["jobs"]
            if heartbeat is None and jobs:
                interval = heartbeat_s or reply["lease_ttl_s"] / 3.0
                heartbeat = _Heartbeat(
                    client, stats.worker, interval
                ).start()
            stats.leases += len(jobs)
            if jobs:
                # One batched store pass covers the whole lease: the
                # cache checks and dependency reads in run_one become
                # memory hits, so a remote store costs ceil(N / batch)
                # round trips per lease instead of one per artifact.
                wanted = []
                for job in jobs:
                    wanted.append((job["kind"], job["key"]))
                    wanted.extend(zip(job["dep_kinds"], job["deps"]))
                store_op(lambda: store.prefetch(wanted))
            for job in jobs:
                notify("lease", job)
            for index, job in enumerate(jobs):
                if stop.is_set():
                    # Graceful drain: hand unstarted leases back.
                    for unstarted in jobs[index:]:
                        client.complete(
                            stats.worker, unstarted["key"], "released"
                        )
                        stats.released += 1
                        notify("released", unstarted)
                    break
                run_one(job)
            if stop.is_set():
                break
            if not jobs:
                if reply["outstanding"] == 0 and exit_when_idle:
                    break
                sleep(poll_s)
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        stats.drained = stop.is_set()
        stats.wall_s = time.perf_counter() - t0
    return stats
