"""Orchestration: parallel, resumable, disk-cached experiment sweeps.

The subsystem decomposes a sweep into content-addressed stage jobs
(:mod:`~repro.orchestration.jobs`), persists stage outputs through an
artifact store (:mod:`~repro.orchestration.store`) with pluggable
backends — directory, single-file SQLite, a remote cache server,
optionally tiered (:mod:`~repro.orchestration.backends`,
:mod:`~repro.orchestration.cache_server`) — executes the job DAG
serially or across worker processes with retries and per-attempt
timeouts (:mod:`~repro.orchestration.executor`), writes JSONL results
plus a run manifest (:mod:`~repro.orchestration.sink`), and diffs run
manifests for incremental-sweep workflows
(:mod:`~repro.orchestration.diff`).  :mod:`~repro.orchestration.sweep`
ties it together behind :func:`run_sweep`; the evaluation harness and
the ``repro sweep`` / ``repro tables`` / ``repro diff`` /
``repro cache`` / ``repro serve-cache`` CLI are thin clients.

For cross-machine fault tolerance, a lease-based work-stealing
scheduler (:mod:`~repro.orchestration.coordinator`) rides on the cache
server's ``/v1/fleet`` endpoints, ``repro worker`` processes pull
leased job batches through :mod:`~repro.orchestration.worker`, and
:func:`run_fleet_sweep` plans, enqueues and watches a whole fleet
sweep — with bounded retry/backoff on every remote store call and
graceful degradation of tiered stores underneath.

On top of all of that sits placement-as-a-service: ``repro serve``
(:mod:`~repro.orchestration.service`) is an authenticated multi-tenant
front door that plans submitted sweeps, schedules them fairly over one
shared worker pool (:mod:`~repro.orchestration.scheduler`) and one
shared store, computes overlapping jobs once fleet-wide, and streams
per-run results and diff-compatible manifests back over HTTP.  See
``docs/orchestration.md``, ``docs/storage.md``, ``docs/fleet.md``,
``docs/service.md`` and ``docs/tables.md``.
"""

from repro.orchestration.backends import (
    DEFAULT_RETRY_POLICY,
    ArtifactEntry,
    DirBackend,
    RemoteHTTPBackend,
    RetryPolicy,
    SqliteBackend,
    StoreBackend,
    StoreError,
    StoreUnavailable,
    SyncStats,
    TieredBackend,
    backend_from_url,
    retry_call,
    sync_stores,
)
from repro.orchestration.cache_server import CacheServer
from repro.orchestration.coordinator import (
    FleetClient,
    FleetCoordinator,
    FleetError,
    serialize_graph,
)
from repro.orchestration.diff import (
    RunDiff,
    diff_runs,
    format_diff,
    load_run,
)
from repro.orchestration.executor import (
    JobFailure,
    JobTimeout,
    RunStats,
    run_jobs,
)
from repro.orchestration.jobs import Job, JobGraph, job_key
from repro.orchestration.scheduler import FairScheduler
from repro.orchestration.service import (
    JobService,
    ServiceClient,
    ServiceError,
    ServiceToken,
    spec_from_document,
)
from repro.orchestration.sink import RunSink, read_jsonl
from repro.orchestration.stages import (
    config_from_dict,
    config_to_dict,
    execute_job,
    noise_from_dict,
    noise_to_dict,
)
from repro.orchestration.store import (
    ArtifactStore,
    TieredStore,
    resolve_store,
)
from repro.orchestration.sweep import (
    SweepPlan,
    SweepResult,
    SweepSpec,
    plan_sweep,
    run_fleet_sweep,
    run_sweep,
)
from repro.orchestration.worker import (
    DependencyUnavailable,
    WorkerStats,
    run_worker,
)

__all__ = [
    "ArtifactEntry",
    "ArtifactStore",
    "CacheServer",
    "DEFAULT_RETRY_POLICY",
    "DependencyUnavailable",
    "DirBackend",
    "FairScheduler",
    "FleetClient",
    "FleetCoordinator",
    "FleetError",
    "Job",
    "JobFailure",
    "JobGraph",
    "JobService",
    "JobTimeout",
    "RemoteHTTPBackend",
    "RetryPolicy",
    "RunDiff",
    "RunSink",
    "RunStats",
    "ServiceClient",
    "ServiceError",
    "ServiceToken",
    "SqliteBackend",
    "StoreBackend",
    "StoreError",
    "StoreUnavailable",
    "SweepPlan",
    "SweepResult",
    "SweepSpec",
    "SyncStats",
    "TieredBackend",
    "TieredStore",
    "WorkerStats",
    "backend_from_url",
    "config_from_dict",
    "config_to_dict",
    "diff_runs",
    "execute_job",
    "format_diff",
    "job_key",
    "load_run",
    "noise_from_dict",
    "noise_to_dict",
    "plan_sweep",
    "read_jsonl",
    "resolve_store",
    "retry_call",
    "run_fleet_sweep",
    "run_jobs",
    "run_sweep",
    "run_worker",
    "serialize_graph",
    "spec_from_document",
    "sync_stores",
]
