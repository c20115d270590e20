"""``repro serve``: placement-as-a-service over the shared fleet stack.

The cache server gives the fleet a shared artifact store and the
coordinator gives it lease-based execution, but a client still has to
own the process pool.  The job service is the missing front door: one
process that accepts sweep submissions from many authenticated tenants,
schedules them fairly over one shared worker pool
(:class:`~repro.orchestration.scheduler.FairScheduler`) and one shared
store, and streams each run's results back incrementally.  Because
jobs are content-addressed, overlapping submissions from different
tenants compute the overlap **once** fleet-wide — each run's manifest
charges a shared job as ``computed`` to exactly one tenant and
``cached`` to every other, so the counters add up across tenants.

The HTTP protocol (everything the cache server speaks, plus):

=====================================  ==================================
``POST   /v1/run``                     submit a sweep → ``{"run_id"}``
``GET    /v1/run/<id>``                status: counts, state, failures
``GET    /v1/run/<id>/results``        result rows (``?after=N`` resumes)
``GET    /v1/run/<id>/manifest``       diff-compatible run manifest
``DELETE /v1/run/<id>``                cancel the run's queued jobs
=====================================  ==================================

**Every** endpoint — including the inherited artifact and fleet routes —
requires ``Authorization: Bearer <token>``; tokens are compared in
constant time (:func:`hmac.compare_digest`, all tokens always checked)
and may carry an expiry.  A request without a valid live token gets
``401 {"error": "unauthorized"}`` and nothing else — no path echo, no
hint which part failed.  The trusted-network ``repro serve-cache``
stays unauthenticated; run the service when the network isn't trusted
or tenants must be told apart.

Submissions are :class:`~repro.orchestration.sweep.SweepSpec` documents
(or the single-flow shorthand ``{"topology", "benchmark", "engine"}``);
planning reuses :func:`~repro.orchestration.sweep.plan_sweep`,
execution reuses the coordinator/worker stack in-process, and results
are bit-identical to a serial :func:`~repro.orchestration.sweep
.run_sweep` of the same spec.  Completed runs are persisted under
``<runs_root>/<run_id>/`` as ``results.jsonl`` + ``manifest.json``,
the same layout every other run producer writes (``repro diff`` reads
them directly).  See ``docs/service.md``.
"""

from __future__ import annotations

import hmac
import json
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.orchestration.backends import (
    StoreBackend,
    StoreUnavailable,
    http_request,
)
from repro.orchestration.cache_server import CacheServer, _CacheRequestHandler
from repro.orchestration.coordinator import serialize_graph
from repro.orchestration.executor import RunStats
from repro.orchestration.scheduler import FairScheduler
from repro.orchestration.sink import RunSink
from repro.orchestration.store import ArtifactStore
from repro.orchestration.sweep import (
    SweepSpec,
    cell_row,
    cell_summary,
    plan_sweep,
)
from repro.orchestration.worker import run_worker

#: The states a run can report; terminal ones end a client's polling.
TERMINAL_RUN_STATES = ("done", "failed", "cancelled")

#: Fields a submitted spec document may carry (SweepSpec's surface).
_SPEC_FIELDS = tuple(spec_field.name for spec_field in fields(SweepSpec))

#: The single-flow shorthand's singular name for each sweep axis.
_FLOW_AXES = {
    "topology": "topologies",
    "benchmark": "benchmarks",
    "engine": "engines",
}

#: The fields besides the axes, optional in both submission forms.
_OPTIONAL_FIELDS = tuple(
    name for name in _SPEC_FIELDS if name not in _FLOW_AXES.values()
)

_RUN = r"/v1/run/([A-Za-z0-9][A-Za-z0-9_.-]*)"
#: The GET run routes accept a query string (``results`` reads ``after``).
_QUERY = r"(?:\?.*)?"


class ServiceError(RuntimeError):
    """A job-service request failed (client side)."""


@dataclass(frozen=True)
class ServiceToken:
    """One bearer token: the secret, its tenant, an optional expiry.

    ``expires_s`` is a timestamp on the *service's* clock (the
    injectable ``clock`` passed to :class:`JobService`, monotonic by
    default); ``None`` never expires.
    """

    secret: str
    tenant: str = "default"
    expires_s: Optional[float] = None


def spec_from_document(document: dict) -> SweepSpec:
    """Build a :class:`SweepSpec` from a submitted JSON document.

    Accepts either the full spec form (``topologies`` / ``benchmarks``
    / ``engines`` lists plus the optional seed/config fields) or the
    single-flow shorthand (``topology`` / ``benchmark`` / ``engine``
    strings).  Unknown fields are rejected so a typo like ``topologys``
    fails loudly instead of silently running the defaults.
    """
    if not isinstance(document, dict):
        raise ValueError("submission must be a JSON object")
    if "topology" in document:
        unknown = set(document) - {*_FLOW_AXES, *_OPTIONAL_FIELDS}
        if unknown:
            raise ValueError(
                f"unknown flow fields: {', '.join(sorted(unknown))}"
            )
        for name in _FLOW_AXES:
            if name not in document:
                raise ValueError(f"flow submission is missing {name!r}")
        translated = {
            axis: (document[name],) for name, axis in _FLOW_AXES.items()
        }
        for name in _OPTIONAL_FIELDS:
            if name in document:
                translated[name] = document[name]
        return SweepSpec(**translated)
    unknown = set(document) - set(_SPEC_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown spec fields: {', '.join(sorted(unknown))}"
        )
    for name in _FLOW_AXES.values():
        if not document.get(name):
            raise ValueError(f"spec is missing {name!r}")
    return SweepSpec(**{k: document[k] for k in _SPEC_FIELDS if k in document})


@dataclass
class _ServiceRun:
    """One submitted run's service-side bookkeeping."""

    run_id: str
    tenant: str
    spec: dict  # JSON-safe SweepSpec form
    cells: List[tuple]  # ((topology, benchmark, engine), key), plan order
    num_jobs: int
    rows: List[dict] = field(default_factory=list)  # guarded-by: _runs_lock
    cells_done: int = 0  # guarded-by: _runs_lock — cells consumed into rows
    persisted: bool = False  # guarded-by: _runs_lock


class _ServiceRequestHandler(_CacheRequestHandler):
    """The cache-server protocol plus ``/v1/run``, all behind auth."""

    server_version = "repro-service/1.0"

    routes = _CacheRequestHandler.routes + (
        ("POST", "/v1/run", "_submit"),
        ("GET", _RUN + _QUERY, "_run_status"),
        ("GET", _RUN + "/results" + _QUERY, "_run_results"),
        ("GET", _RUN + "/manifest" + _QUERY, "_run_manifest"),
        ("DELETE", _RUN, "_cancel"),
    )

    #: The tenant of the request being served (set by :meth:`_authorized`
    #: on every request: one keep-alive connection may carry many).
    tenant = ""

    @property
    def service(self) -> "JobService":
        return self.server.service

    def _authorized(self) -> bool:
        """Serve only requests bearing a valid live token."""
        header = self.headers.get("Authorization") or ""
        tenant = None
        if header.startswith("Bearer "):
            tenant = self.service.authenticate(header[len("Bearer "):])
        self.tenant = tenant or ""
        return tenant is not None

    def _run_reply(self, call: Callable[..., dict], *args: object) -> None:
        """Send ``call(*args)``'s document; an unknown run id is a 404."""
        try:
            document = call(*args)
        except ValueError:
            self._send_json(404, {"error": "unknown run"})
            return
        self._send_json(200, document)

    def _submit(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            self._bad_request("body is not valid JSON")
            return
        try:
            reply = self.service.submit(document, self.tenant)
        except (KeyError, TypeError, ValueError) as exc:
            self._bad_request(f"invalid submission: {exc}")
            return
        self._send_json(200, reply)

    def _run_status(self, run_id: str) -> None:
        self._run_reply(self.service.run_status, run_id)

    def _run_results(self, run_id: str) -> None:
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(self.path).query)
        try:
            after = int(query.get("after", ["0"])[0])
        except ValueError:
            self._bad_request("after must be an integer")
            return
        if after < 0:
            self._bad_request("after must be >= 0")
            return
        self._run_reply(self.service.run_results, run_id, after)

    def _run_manifest(self, run_id: str) -> None:
        self._run_reply(self.service.run_manifest, run_id)

    def _cancel(self, run_id: str) -> None:
        self._run_reply(self.service.cancel, run_id)


class JobService:
    """A running multi-tenant job service (embeddable; used by the CLI).

    Owns the HTTP front door (a :class:`~repro.orchestration
    .cache_server.CacheServer` with the service handler), the
    :class:`~repro.orchestration.scheduler.FairScheduler`, and a pool
    of in-process worker threads leasing from it directly.  Binds
    on construction (``port=0`` → ephemeral, read back from
    :attr:`url`); serves and executes after :meth:`start`.  Usable as a
    context manager::

        tokens = [ServiceToken("s3cret", tenant="alice")]
        with JobService("dir:.repro_cache", tokens, workers=2) as service:
            client = ServiceClient(service.url, "s3cret")
            run = client.submit({"topologies": [...], ...})
            client.wait(run["run_id"])

    ``store`` may be a store URL, a backend, or an
    :class:`~repro.orchestration.store.ArtifactStore`; it must persist
    through a backend (the HTTP artifact endpoints serve it).  A store
    the service opened from a URL/backend is closed on :meth:`stop`; a
    caller-supplied :class:`ArtifactStore` stays open for the caller.
    """

    def __init__(
        self,
        store: Union[str, StoreBackend, ArtifactStore],
        tokens: Iterable[Union[str, ServiceToken]],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        runs_root: Optional[str] = None,
        lease_ttl_s: float = 60.0,
        max_attempts: int = 3,
        poll_s: float = 0.05,
        quiet: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # workers=0 is the front-door-only mode: submissions queue but
        # nothing executes until workers attach — the acceptance tests
        # use it to pin queue-state semantics deterministically.
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        normalized: List[ServiceToken] = []
        for index, token in enumerate(tokens):
            if isinstance(token, ServiceToken):
                normalized.append(token)
            else:
                normalized.append(
                    ServiceToken(secret=token, tenant=f"tenant{index + 1}")
                )
        if not normalized:
            raise ValueError(
                "at least one bearer token is required — the service "
                "never runs unauthenticated (use serve-cache on a "
                "trusted network instead)"
            )
        self._tokens = tuple(normalized)
        self._owns_store = not isinstance(store, ArtifactStore)
        if isinstance(store, ArtifactStore):
            self.store = store
        elif isinstance(store, StoreBackend):
            self.store = ArtifactStore(backend=store)
        else:
            self.store = ArtifactStore.from_url(store)
        if self.store.backend is None:
            raise ValueError(
                "the service store must persist through a backend "
                "(the HTTP artifact endpoints serve it)"
            )
        self._clock = clock
        self.runs_root = runs_root
        self.workers = workers
        self.poll_s = poll_s
        self.scheduler = FairScheduler(
            lease_ttl_s=lease_ttl_s, max_attempts=max_attempts, clock=clock
        )
        self._cache = CacheServer(
            self.store.backend,
            host=host,
            port=port,
            quiet=quiet,
            coordinator=self.scheduler,
            handler_class=_ServiceRequestHandler,
        )
        self._cache._httpd.service = self
        self.host, self.port = self._cache.host, self._cache.port
        self._runs: Dict[str, _ServiceRun] = {}  # guarded-by: _runs_lock
        self._runs_lock = threading.Lock()
        self._seq = 0  # guarded-by: _runs_lock — run-id counter
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    @property
    def url(self) -> str:
        """The base URL tenants pass to :class:`ServiceClient`."""
        return f"http://{self.host}:{self.port}"

    # -- auth --------------------------------------------------------------
    def authenticate(self, presented: str) -> Optional[str]:
        """The tenant of a matching live token, else None.

        Every configured token is always compared (no early exit) and
        each comparison is constant-time, so response timing reveals
        neither which token matched nor how close a guess came.
        """
        presented_bytes = presented.strip().encode("utf-8")
        now = self._clock()
        tenant: Optional[str] = None
        for token in self._tokens:
            match = hmac.compare_digest(
                token.secret.encode("utf-8"), presented_bytes
            )
            live = token.expires_s is None or now < token.expires_s
            if match and live and tenant is None:
                tenant = token.tenant
        return tenant

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "JobService":
        """Start serving and executing; returns self for chaining."""
        self._cache.start()
        for index in range(self.workers):
            thread = threading.Thread(
                target=run_worker,
                kwargs={
                    "coordinator": self.scheduler,
                    "store": self.store,
                    "worker_id": f"svc-worker-{index}",
                    "batch_size": 1,
                    "poll_s": self.poll_s,
                    "exit_when_idle": False,
                    "stop": self._stop,
                },
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Drain the workers and shut the server down; idempotent."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=30)
        self._threads = []
        self._cache.stop()
        if self._owns_store:
            self.store.close()
            self._owns_store = False

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    # -- the run API (called by the handler and by embedders) --------------
    def submit(self, document: dict, tenant: str) -> dict:
        """Plan and register a run; returns the submission receipt.

        ``shared_jobs`` in the receipt counts the jobs another live run
        had already enqueued — the fleet computes them once and this
        run simply consumes the artifacts.
        """
        spec = spec_from_document(document)
        plan = plan_sweep(spec)
        rows = serialize_graph(plan.graph)
        cells = list(plan.cells.items())
        with self._runs_lock:
            self._seq += 1
            run_id = f"run{self._seq:04d}-{spec.spec_hash[:8]}"
        reply = self.scheduler.register_run(run_id, tenant, rows)
        with self._runs_lock:
            self._runs[run_id] = _ServiceRun(
                run_id=run_id,
                tenant=tenant,
                spec=spec.to_dict(),
                cells=cells,
                num_jobs=len(rows),
            )
        return {
            "run_id": run_id,
            "tenant": tenant,
            "num_jobs": len(rows),
            "num_cells": len(cells),
            "shared_jobs": reply["known"],
            "resurrected_jobs": reply["resurrected"],
        }

    def _get_run(self, run_id: str) -> _ServiceRun:
        with self._runs_lock:
            run = self._runs.get(run_id)
        if run is None:
            raise ValueError(f"unknown run id {run_id!r}")
        return run

    def _advance_results(self, run: _ServiceRun, snapshot: dict) -> None:
        """Consume newly finished cells into the run's result rows.

        Rows are appended strictly in plan order — a cell is consumed
        only once every cell before it is done — so incremental reads
        see a stable, deterministic prefix of the final stream, exactly
        the order a serial ``run_sweep`` would emit.  Cells whose
        payload has no samples are skipped, matching ``run_sweep``.
        """
        states = snapshot["states"]
        with self._runs_lock:
            while run.cells_done < len(run.cells):
                cell_id, key = run.cells[run.cells_done]
                if states.get(key) != "done":
                    break
                payload = self.store.get("fidelity", key)
                if payload is None:
                    break  # store lagging the ledger: retry next poll
                run.cells_done += 1
                samples = payload["samples"]
                if samples:
                    run.rows.append(cell_row(cell_id, cell_summary(samples)))

    def run_status(self, run_id: str) -> dict:
        """One run's progress: state, counts, attribution, failures."""
        run = self._get_run(run_id)
        snapshot = self.scheduler.run_snapshot(run_id)
        self._advance_results(run, snapshot)
        stats = _run_ledger(snapshot)
        with self._runs_lock:
            cells_done = run.cells_done
            num_rows = len(run.rows)
        document = {
            "run_id": run_id,
            "tenant": run.tenant,
            "state": snapshot["state"],
            "counts": snapshot["counts"],
            "computed": stats.computed,
            "cached": stats.cached,
            "num_cells": len(run.cells),
            "cells_done": cells_done,
            "num_rows": num_rows,
            "failures": snapshot["failures"],
        }
        self._maybe_persist(run, snapshot)
        return document

    def run_results(self, run_id: str, after: int = 0) -> dict:
        """Result rows from ``after`` on, plus the resume cursor.

        ``complete=True`` means the stream is final (every cell
        consumed); a non-``done`` terminal ``state`` with
        ``complete=False`` means the stream will never finish and the
        client should stop polling.
        """
        run = self._get_run(run_id)
        snapshot = self.scheduler.run_snapshot(run_id)
        self._advance_results(run, snapshot)
        with self._runs_lock:
            rows = [dict(row) for row in run.rows[after:]]
            cursor = len(run.rows)
            complete = run.cells_done == len(run.cells)
        self._maybe_persist(run, snapshot)
        return {
            "run_id": run_id,
            "state": snapshot["state"],
            "rows": rows,
            "next": cursor,
            "complete": complete,
        }

    def run_manifest(self, run_id: str) -> dict:
        """The run's diff-compatible manifest (as persisted on disk).

        A shared job appears as ``computed`` in the manifest of the run
        it was *charged* to (the run whose fair-share slot scheduled
        it) and ``cached`` everywhere else, so summing ``jobs.computed``
        across overlapping runs counts every union job exactly once.
        """
        run = self._get_run(run_id)
        snapshot = self.scheduler.run_snapshot(run_id)
        self._advance_results(run, snapshot)
        return self._build_manifest(run, snapshot)

    def _build_manifest(self, run: _ServiceRun, snapshot: dict) -> dict:
        stats = _run_ledger(snapshot)
        with self._runs_lock:
            num_cells = len(run.rows)
        return {
            "run_id": run.run_id,
            "spec": run.spec,
            "shard": None,
            "workers": 0,
            "resume": True,
            "retries": None,
            "timeout_s": None,
            "service": {
                "tenant": run.tenant,
                "scheduler": "fair-round-robin",
                "lease_ttl_s": snapshot["lease_ttl_s"],
                "max_attempts": snapshot["max_attempts"],
            },
            "jobs": stats.to_dict(),
            "num_cells": num_cells,
        }

    def _maybe_persist(self, run: _ServiceRun, snapshot: dict) -> None:
        """Write results.jsonl + manifest.json once a run completes."""
        if self.runs_root is None or snapshot["state"] != "done":
            return
        with self._runs_lock:
            if run.persisted or run.cells_done < len(run.cells):
                return
            run.persisted = True
            rows = [dict(row) for row in run.rows]
        manifest = self._build_manifest(run, snapshot)
        sink = RunSink(os.path.join(self.runs_root, run.run_id))
        sink.write_results(rows)
        sink.write_manifest(manifest)

    def cancel(self, run_id: str) -> dict:
        """Cancel a run's queued jobs (shared/leased jobs keep going)."""
        self._get_run(run_id)
        return self.scheduler.cancel_run(run_id)


def _run_ledger(snapshot: dict) -> RunStats:
    """A run's ledger from its scheduler snapshot, in plan order.

    A shared job is ``computed`` only in the run it was charged to and
    ``cached`` in every other.
    """
    charged = set(snapshot["charged"])
    results = snapshot["results"]
    order = {key: i for i, key in enumerate(snapshot["states"])}
    stats = RunStats(total=snapshot["counts"]["total"])
    for entry in sorted(snapshot["entries"], key=lambda e: order[e["key"]]):
        key = entry["key"]
        computed = key in charged and results.get(key) == "computed"
        stats.record_row(
            dict(entry, status="computed" if computed else "cached")
        )
    stats.failures = snapshot["failures"]
    return stats


class ServiceClient:
    """HTTP client for the job service (stdlib only).

    Sends ``Authorization: Bearer <token>`` on every request; protocol
    and auth failures raise :class:`ServiceError` with the server's
    error message (``401`` surfaces as ``unauthorized``).
    """

    def __init__(
        self,
        base_url: str,
        token: str,
        timeout_s: float = 30.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout_s = timeout_s

    def _call(
        self,
        method: str,
        path: str,
        document: Optional[dict] = None,
    ) -> dict:
        # repro: lint-ignore[RPR002] service RPC bodies are transport,
        # not content-keyed artifacts; field order is free
        body = None if document is None else json.dumps(document).encode()
        try:
            status, payload = http_request(
                f"{self.base_url}{path}", method, body, self.token,
                self.timeout_s,
            )
        except StoreUnavailable as exc:
            raise ServiceError(f"service {exc}") from exc
        try:
            parsed = json.loads(payload.decode("utf-8"))
        except ValueError:
            raise ServiceError(
                f"{method} {path}: invalid JSON response "
                f"(HTTP {status})"
            ) from None
        if status != 200:
            raise ServiceError(
                f"{method} {path}: HTTP {status}: "
                f"{parsed.get('error', 'unknown error')}"
            )
        return parsed

    def ping(self) -> dict:
        """The server's ping document (raises on bad auth)."""
        return self._call("GET", "/v1/ping")

    def submit(self, document: dict) -> dict:
        """Submit a sweep spec (or single-flow) document."""
        return self._call("POST", "/v1/run", document)

    def status(self, run_id: str) -> dict:
        """One run's progress document."""
        return self._call("GET", f"/v1/run/{run_id}")

    def results(self, run_id: str, after: int = 0) -> dict:
        """Result rows from ``after`` on (incremental streaming)."""
        return self._call(
            "GET", f"/v1/run/{run_id}/results?after={int(after)}"
        )

    def manifest(self, run_id: str) -> dict:
        """The run's diff-compatible manifest."""
        return self._call("GET", f"/v1/run/{run_id}/manifest")

    def cancel(self, run_id: str) -> dict:
        """Cancel the run's queued jobs."""
        return self._call("DELETE", f"/v1/run/{run_id}")

    def wait(
        self,
        run_id: str,
        poll_s: float = 0.2,
        timeout_s: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> dict:
        """Poll until the run reaches a terminal state; returns it.

        Raises :class:`ServiceError` when ``timeout_s`` elapses first.
        """
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        while True:
            status = self.status(run_id)
            if status["state"] in TERMINAL_RUN_STATES:
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"run {run_id} still {status['state']!r} after "
                    f"{timeout_s:g}s"
                )
            sleep(poll_s)

