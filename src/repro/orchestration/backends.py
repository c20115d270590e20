"""Pluggable persistence backends for the artifact store.

The :class:`~repro.orchestration.store.ArtifactStore` API is
deliberately just get/put/has over JSON documents; this module supplies
the persistence layer behind it as interchangeable
:class:`StoreBackend` implementations:

* :class:`DirBackend` — one ``<root>/<kind>/<key>.json`` file per
  artifact, byte-compatible with the ``.repro_cache/`` layout every
  release so far has written (atomic tmp-file + rename writes);
* :class:`SqliteBackend` — one WAL-mode SQLite database file holding
  every artifact, safe for concurrent sharded writers and free of the
  100k-inode sprawl a large sweep leaves behind as individual files;
* :class:`RemoteHTTPBackend` — a client for the tiny JSON protocol
  ``repro serve-cache`` speaks (see
  :mod:`repro.orchestration.cache_server`), so machines share one warm
  cache over the network;
* :class:`TieredBackend` — a fast local layer over a remote one:
  reads check local first and write remote hits back locally,
  writes go to both, so a fleet of sweep machines behind one
  ``serve-cache`` converges on warm local caches.

Backends move artifacts as **canonical JSON text** (the exact bytes the
store would write to disk), never re-encoding payloads, so any chain of
``push`` / ``pull`` / tiering hops is byte-preserving: the content key
always addresses the same bytes, whichever backend serves them.

``backend_from_url`` resolves the user-facing store URL schemes
(``dir:PATH``, ``sqlite:PATH``, ``http://...``; a bare path means
``dir:``), and :func:`sync_stores` copies one backend into another by
content key — the engine behind ``repro cache push`` / ``pull``.  See
``docs/storage.md``.
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar, Union

_T = TypeVar("_T")


class StoreError(RuntimeError):
    """A storage backend rejected or failed an operation."""


class StoreUnavailable(StoreError):
    """A remote store could not be reached (network / server down).

    Raised instead of silently treating the remote as empty: a flaky
    cache server must fail a resume loudly, not trigger a silent fleet
    recomputation of every artifact.
    """


#: HTTP statuses treated as transient server trouble, worth retrying.
RETRYABLE_HTTP_STATUSES = frozenset({429, 500, 502, 503, 504})


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for transient faults.

    ``attempts`` is the *total* number of tries (first call included);
    the delay before the n-th retry is ``base_delay_s * 2**(n-1)``
    capped at ``max_delay_s``, then shrunk by up to ``jitter`` of itself
    (decorrelated jitter: a fleet of workers hammered by the same outage
    must not retry in lockstep).  ``attempts=1`` disables retrying.
    """

    attempts: int = 5
    base_delay_s: float = 0.1
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_s(self, failures: int, rng: random.Random) -> float:
        """The sleep before the next try after ``failures`` failed tries."""
        delay = min(self.max_delay_s, self.base_delay_s * 2 ** (failures - 1))
        if self.jitter:
            delay *= 1.0 - self.jitter * rng.random()
        return delay


#: The default transient-fault budget for remote stores and fleet RPCs.
DEFAULT_RETRY_POLICY = RetryPolicy()


def retry_call(
    operation: Callable[[], _T],
    policy: Optional[RetryPolicy] = None,
    transient: tuple = (StoreUnavailable,),
    sleep: Callable[[float], None] = time.sleep,
    rng: Optional[random.Random] = None,
    on_retry: Optional[Callable] = None,
) -> _T:
    """Run ``operation()`` under ``policy``, retrying transient failures.

    Exceptions in ``transient`` are swallowed and retried with backoff
    until the policy's attempt budget is exhausted, then re-raised —
    so callers still see :class:`StoreUnavailable`, just later and only
    for genuinely persistent outages.  Any other exception propagates
    immediately.  ``on_retry(failures, exc)`` is an observability hook
    (the worker loop and the HTTP clients count transient faults
    through it).
    """
    policy = policy or DEFAULT_RETRY_POLICY
    # repro: lint-ignore[RPR001] backoff jitter must decorrelate across
    # workers; it never reaches a payload or content key
    rng = rng or random.Random()
    failures = 0
    while True:
        try:
            return operation()
        except transient as exc:
            failures += 1
            if on_retry is not None:
                on_retry(failures, exc)
            if failures >= policy.attempts:
                raise
            sleep(policy.delay_s(failures, rng))


def http_request(
    url: str,
    method: str = "GET",
    body: Optional[bytes] = None,
    token: Optional[str] = None,
    timeout_s: float = 30.0,
) -> Tuple[int, bytes]:
    """One HTTP round trip → ``(status, body)``, whatever the status.

    The one HTTP client every protocol speaker (store, fleet, service)
    goes through: a ``body`` is sent as JSON, ``token`` as
    ``Authorization: Bearer <token>``.  Every HTTP status is returned
    for the caller to interpret; only connection-level faults (refused,
    reset, timed out) raise, as :class:`StoreUnavailable`.
    """
    request = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        request.add_header("Content-Type", "application/json")
    if token is not None:
        request.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise StoreUnavailable(f"{method} {url} unreachable: {exc}") from exc


@dataclass(frozen=True)
class ArtifactEntry:
    """One stored artifact: identity plus the bookkeeping gc/stats need."""

    kind: str
    key: str
    size: int  # canonical JSON text, UTF-8 bytes
    mtime: float  # seconds since the epoch, backend-local clock


class StoreBackend(ABC):
    """The persistence contract behind :class:`ArtifactStore`.

    Implementations store canonical JSON *text* addressed by
    ``(kind, key)`` and must be safe to call from multiple threads (the
    cache server serves one backend from a threading HTTP server).
    ``get_text`` returns ``None`` for absent or unreadable artifacts;
    only genuine backend failures raise :class:`StoreError`.
    """

    @abstractmethod
    def get_text(self, kind: str, key: str) -> Optional[str]:
        """The artifact's canonical JSON text, or ``None`` when absent."""

    @abstractmethod
    def put_text(self, kind: str, key: str, text: str) -> None:
        """Store canonical JSON text (atomically / transactionally)."""

    @abstractmethod
    def has(self, kind: str, key: str) -> bool:
        """True when the artifact exists."""

    @abstractmethod
    def entries(self) -> List[ArtifactEntry]:
        """Every stored artifact (the inventory gc / stats / sync walk)."""

    @abstractmethod
    def delete(self, kind: str, key: str) -> bool:
        """Remove one artifact; True when something was deleted."""

    @abstractmethod
    def describe(self) -> str:
        """The backend's canonical store URL (``dir:...``, etc.)."""

    def get_many(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], Optional[str]]:
        """Fetch several artifacts: ``(kind, key) -> text`` (None = absent).

        The default loops over :meth:`get_text`; remote backends
        override it with a batched protocol so a resume check over N
        artifacts costs ``ceil(N / batch_size)`` round trips, not N.
        """
        return {(kind, key): self.get_text(kind, key) for kind, key in pairs}

    def has_many(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], bool]:
        """Existence probes for several artifacts at once (see get_many)."""
        return {(kind, key): self.has(kind, key) for kind, key in pairs}

    def close(self) -> None:
        """Release backend resources (connections, sockets); idempotent."""

    def __enter__(self) -> "StoreBackend":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


class DirBackend(StoreBackend):
    """Directory layout: ``<root>/<kind>/<key>.json``, atomic writes.

    Byte-compatible with the historical ``.repro_cache/`` directory —
    an existing cache keeps working unchanged, and artifacts written
    through any other backend then ``repro cache push``-ed here are
    byte-identical to ones this backend wrote itself.  Run outputs under
    ``<root>/runs/<run_id>/`` live one level deeper and are therefore
    never mistaken for artifacts by :meth:`entries`.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, kind, f"{key}.json")

    def get_text(self, kind: str, key: str) -> Optional[str]:
        try:
            with open(self._path(kind, key), "rb") as fh:
                return fh.read().decode("utf-8")
        except (OSError, UnicodeDecodeError):
            return None  # absent, or unreadable: not UTF-8 text

    def put_text(self, kind: str, key: str, text: str) -> None:
        path = self._path(kind, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def has(self, kind: str, key: str) -> bool:
        return os.path.exists(self._path(kind, key))

    def entries(self) -> List[ArtifactEntry]:
        found = []
        try:
            kinds = sorted(os.listdir(self.root))
        except OSError:
            return found
        for kind in kinds:
            kind_dir = os.path.join(self.root, kind)
            if not os.path.isdir(kind_dir):
                continue
            for name in sorted(os.listdir(kind_dir)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(kind_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                found.append(
                    ArtifactEntry(
                        kind=kind,
                        key=name[: -len(".json")],
                        size=stat.st_size,
                        mtime=stat.st_mtime,
                    )
                )
        return found

    def delete(self, kind: str, key: str) -> bool:
        try:
            os.unlink(self._path(kind, key))
            return True
        except OSError:
            return False

    def describe(self) -> str:
        return f"dir:{self.root}"


class SqliteBackend(StoreBackend):
    """One WAL-mode SQLite database file holding every artifact.

    A large sweep stores one row per artifact instead of one inode per
    artifact, and WAL journaling with a generous busy timeout makes the
    file safe for concurrent writers **on one host** — several sweep
    processes, sharded ``repro sweep --shard i/n`` runs, or a
    ``serve-cache`` thread pool all landing on the same local database.
    WAL's shared-memory index does not work across network filesystems,
    so never point two *machines* at one ``sqlite:`` path over NFS —
    that is exactly what ``repro serve-cache`` over this backend is
    for.  A single connection guarded by a lock serves each backend
    instance (SQLite serializes writers anyway; the lock keeps one
    instance thread-safe for the HTTP server).
    """

    #: How long a connection waits for another connection's lock.
    BUSY_TIMEOUT_S = 30.0

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(  # guarded-by: _lock
            path, timeout=self.BUSY_TIMEOUT_S, check_same_thread=False
        )
        with self._lock:
            self._enable_wal()
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS artifacts ("
                " kind TEXT NOT NULL,"
                " key TEXT NOT NULL,"
                " payload TEXT NOT NULL,"
                " created_at REAL NOT NULL,"
                " PRIMARY KEY (kind, key))"
            )
            self._conn.commit()

    def _enable_wal(self) -> None:  # holds: _lock
        """Switch the database file to WAL journaling.

        Connections switching a fresh file at the same time can deadlock
        on its locks, and SQLite then answers one of them "database is
        locked" at once instead of waiting out the busy timeout.  That
        connection retries until the switch lands or the busy timeout
        has passed.
        """
        deadline = time.monotonic() + self.BUSY_TIMEOUT_S
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def get_text(self, kind: str, key: str) -> Optional[str]:
        # Read bytes: sqlite3 raises on a TEXT value that is not UTF-8.
        with self._lock:
            row = self._conn.execute(
                "SELECT CAST(payload AS BLOB) FROM artifacts"
                " WHERE kind = ? AND key = ?",
                (kind, key),
            ).fetchone()
        if row is None:
            return None
        try:
            return row[0].decode("utf-8")
        except UnicodeDecodeError:
            return None  # unreadable: not UTF-8 text

    def put_text(self, kind: str, key: str, text: str) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO artifacts"
                " (kind, key, payload, created_at) VALUES (?, ?, ?, ?)",
                # repro: lint-ignore[RPR001] created_at is gc bookkeeping
                # (the dir backend's mtime analogue), never in a payload
                (kind, key, text, time.time()),
            )
            self._conn.commit()

    def has(self, kind: str, key: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM artifacts WHERE kind = ? AND key = ?",
                (kind, key),
            ).fetchone()
        return row is not None

    def entries(self) -> List[ArtifactEntry]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT kind, key, length(CAST(payload AS BLOB)), created_at"
                " FROM artifacts ORDER BY kind, key"
            ).fetchall()
        return [
            ArtifactEntry(kind=kind, key=key, size=size, mtime=mtime)
            for kind, key, size, mtime in rows
        ]

    def delete(self, kind: str, key: str) -> bool:
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM artifacts WHERE kind = ? AND key = ?",
                (kind, key),
            )
            self._conn.commit()
        return cursor.rowcount > 0

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def describe(self) -> str:
        return f"sqlite:{self.path}"


class RemoteHTTPBackend(StoreBackend):
    """Client for the ``repro serve-cache`` JSON protocol.

    The protocol is four verbs on
    ``/v1/artifact/<kind>/<key>`` (GET / HEAD / PUT / DELETE) plus
    ``GET /v1/list``, ``GET /v1/stats`` and ``GET /v1/ping`` — see
    :mod:`repro.orchestration.cache_server` and ``docs/storage.md``.
    Connection-level failures raise :class:`StoreUnavailable` (a flaky
    server must not silently look like an empty cache); HTTP 404 is the
    one *expected* error and maps to ``None`` / ``False``.

    Transient faults — connection resets, timeouts, and the 5xx / 429
    statuses in :data:`RETRYABLE_HTTP_STATUSES` — are retried under
    ``retry`` (bounded exponential backoff with jitter; see
    :class:`RetryPolicy`), so :class:`StoreUnavailable` surfaces only
    once the whole budget is exhausted: a dropped TCP connection or one
    503 from a busy cache server costs a short sleep, not a sweep.
    ``transient_failures`` counts the faults absorbed this way.

    Multi-key reads (:meth:`get_many` / :meth:`has_many`) use the
    batched ``POST /v1/artifacts/get`` / ``.../head`` protocol in
    chunks of ``batch_size``, so a fleet resume check over N artifacts
    costs ``ceil(N / batch_size)`` round trips instead of N.  A server
    predating the batch endpoints (which answers them 404 — or 400 for
    the oldest protocol revision) is detected on the first batched call
    and the backend silently degrades to per-key requests; every
    degraded multi-key call is counted in ``batch_fallbacks``, and
    ``requests`` counts HTTP round trips issued (the batch acceptance
    test pins the N → ceil(N/batch) reduction through it).

    ``token`` attaches ``Authorization: Bearer <token>`` to every
    request — required when the server is an authenticated ``repro
    serve`` service rather than a trusted-network ``serve-cache``.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        batch_size: int = 128,
        token: Optional[str] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retry = retry or DEFAULT_RETRY_POLICY
        self.batch_size = batch_size
        self.token = token
        self._stats_lock = threading.Lock()
        self.transient_failures = 0  # guarded-by: _stats_lock
        self.requests = 0  # guarded-by: _stats_lock — HTTP round trips
        self.batch_fallbacks = 0  # guarded-by: _stats_lock
        self._batch_supported: Optional[bool] = None  # guarded-by: _stats_lock
        self._sleep = sleep
        # repro: lint-ignore[RPR001] retry jitter must decorrelate across
        # workers; it never reaches a payload or content key
        self._rng = rng or random.Random()

    def _artifact_url(self, kind: str, key: str) -> str:
        return (
            f"{self.base_url}/v1/artifact/"
            f"{urllib.parse.quote(kind, safe='')}/"
            f"{urllib.parse.quote(key, safe='')}"
        )

    def _request(
        self,
        url: str,
        method: str = "GET",
        body: Optional[bytes] = None,
    ) -> Tuple[int, bytes]:
        """An HTTP round trip with the transient-fault retry budget."""

        def attempt() -> Tuple[int, bytes]:
            with self._stats_lock:
                self.requests += 1
            status, payload = http_request(
                url, method, body, self.token, self.timeout_s
            )
            if status in RETRYABLE_HTTP_STATUSES:
                raise StoreUnavailable(f"{method} {url}: HTTP {status}")
            return status, payload

        def count(_failures: int, _exc: BaseException) -> None:
            with self._stats_lock:
                self.transient_failures += 1

        return retry_call(
            attempt, self.retry, sleep=self._sleep, rng=self._rng,
            on_retry=count,
        )

    def get_text(self, kind: str, key: str) -> Optional[str]:
        status, body = self._request(self._artifact_url(kind, key))
        if status == 404:
            return None
        if status != 200:
            raise StoreError(
                f"GET {kind}/{key[:12]} failed: HTTP {status}"
            )
        return body.decode("utf-8")

    def put_text(self, kind: str, key: str, text: str) -> None:
        status, body = self._request(
            self._artifact_url(kind, key),
            method="PUT",
            body=text.encode("utf-8"),
        )
        if status not in (200, 204):
            raise StoreError(
                f"PUT {kind}/{key[:12]} failed: HTTP {status} "
                f"{body.decode('utf-8', 'replace')[:200]}"
            )

    def has(self, kind: str, key: str) -> bool:
        status, _body = self._request(
            self._artifact_url(kind, key), method="HEAD"
        )
        if status == 200:
            return True
        if status == 404:
            return False
        raise StoreError(f"HEAD {kind}/{key[:12]} failed: HTTP {status}")

    def _batch_request(
        self, verb: str, chunk: List[Tuple[str, str]]
    ) -> Optional[List[object]]:
        """One batched round trip; None means the server lacks the endpoint.

        ``verb`` is ``get`` or ``head``; the reply's ``items`` list is
        positional (one entry per requested pair): text-or-null for
        ``get``, booleans for ``head``.  Legacy servers answer the
        batch path with 404 (or 400 on the oldest protocol revision,
        whose POST handler rejected unknown paths wholesale); both mean
        "fall back to per-key calls", not an error.
        """
        body = json.dumps(  # repro: lint-ignore[RPR002] transport body
            {"items": [{"kind": kind, "key": key} for kind, key in chunk]}
        ).encode("utf-8")
        status, payload = self._request(
            f"{self.base_url}/v1/artifacts/{verb}", method="POST", body=body
        )
        if status in (400, 404):
            return None
        if status != 200:
            raise StoreError(
                f"POST /v1/artifacts/{verb} failed: HTTP {status}"
            )
        items = json.loads(payload.decode("utf-8"))["items"]
        if not isinstance(items, list) or len(items) != len(chunk):
            raise StoreError(
                f"batch {verb} returned {len(items)} items for "
                f"{len(chunk)} keys"
            )
        return items

    def _many(
        self, verb: str, pairs: Iterable[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], Optional[str]]:
        """Shared chunking/fallback driver for get_many and has_many.

        For ``head`` the per-pair value is the sentinel ``""`` when the
        artifact exists and None when absent (callers map to bool).
        """
        todo = list(pairs)
        out: Dict[Tuple[str, str], Optional[str]] = {}
        with self._stats_lock:
            supported = self._batch_supported
        if supported is not False:
            while todo:
                chunk = todo[: self.batch_size]
                items = self._batch_request(verb, chunk)
                if items is None:
                    with self._stats_lock:
                        self._batch_supported = False
                    break
                with self._stats_lock:
                    self._batch_supported = True
                for (kind, key), item in zip(chunk, items):
                    if verb == "head":
                        out[(kind, key)] = "" if item else None
                    elif item is None or isinstance(item, str):
                        out[(kind, key)] = item
                    else:
                        raise StoreError(
                            f"batch get returned a non-text item for "
                            f"{kind}/{key[:12]}"
                        )
                todo = todo[self.batch_size:]
        if todo:
            with self._stats_lock:
                self.batch_fallbacks += 1
        for kind, key in todo:
            if verb == "head":
                out[(kind, key)] = "" if self.has(kind, key) else None
            else:
                out[(kind, key)] = self.get_text(kind, key)
        return out

    def get_many(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], Optional[str]]:
        return self._many("get", pairs)

    def has_many(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], bool]:
        return {
            pair: value is not None
            for pair, value in self._many("head", pairs).items()
        }

    def entries(self) -> List[ArtifactEntry]:
        status, body = self._request(f"{self.base_url}/v1/list")
        if status != 200:
            raise StoreError(f"GET /v1/list failed: HTTP {status}")
        listed = json.loads(body.decode("utf-8"))["entries"]
        return [
            ArtifactEntry(
                kind=entry["kind"],
                key=entry["key"],
                size=entry["size"],
                mtime=entry["mtime"],
            )
            for entry in listed
        ]

    def delete(self, kind: str, key: str) -> bool:
        status, _body = self._request(
            self._artifact_url(kind, key), method="DELETE"
        )
        if status in (200, 204):
            return True
        if status == 404:
            return False
        raise StoreError(f"DELETE {kind}/{key[:12]} failed: HTTP {status}")

    def ping(self) -> dict:
        """The server's ``/v1/ping`` document (raises when unreachable)."""
        status, body = self._request(f"{self.base_url}/v1/ping")
        if status != 200:
            raise StoreError(f"GET /v1/ping failed: HTTP {status}")
        return json.loads(body.decode("utf-8"))

    def describe(self) -> str:
        return self.base_url


class TieredBackend(StoreBackend):
    """A fast local layer over a remote backend (read-through cache).

    * ``get_text`` serves from local when possible; a remote hit is
      written back to the local layer, so repeated reads never touch
      the network twice for the same key.
    * ``put_text`` writes to **both** layers: the machine that computed
      an artifact warms the fleet-wide cache immediately.
    * ``entries`` reports the union of both layers (the remote is
      authoritative for anything the local layer hasn't seen yet).

    ``has`` consults local first, then remote, and copies nothing —
    against an *empty* local layer every hit is therefore proof the
    remote served it, which is exactly what the backend-parity
    acceptance test leans on.

    With ``degrade=True`` (the default) a remote outage that survives
    the remote's own retry budget no longer aborts the run: reads fall
    back to local-only misses, writes land in the local layer alone,
    and each skipped remote operation is counted in ``degraded_reads``
    / ``degraded_writes`` (with one ``RuntimeWarning`` the first time).
    The local layer keeps everything, so once the remote is back a
    ``repro cache push`` / :func:`sync_stores` pass re-converges the
    fleet cache — results are never wrong, only less shared.  Pass
    ``degrade=False`` to keep the strict fail-fast behavior.
    """

    def __init__(
        self,
        local: StoreBackend,
        remote: StoreBackend,
        degrade: bool = True,
    ) -> None:
        self.local = local
        self.remote = remote
        self.degrade = degrade
        # The store contract requires thread-safety (serve-cache fronts
        # one backend with a threading HTTP server), so the degradation
        # counters are guarded — unsynchronized += would drop counts.
        self._stats_lock = threading.Lock()
        self.degraded_reads = 0  # guarded-by: _stats_lock
        self.degraded_writes = 0  # guarded-by: _stats_lock
        self._warned = False  # guarded-by: _stats_lock

    @property
    def degraded_ops(self) -> int:
        """Remote operations skipped because the remote was unreachable."""
        with self._stats_lock:
            return self.degraded_reads + self.degraded_writes

    def _remote_down(self, write: bool, exc: StoreUnavailable) -> None:
        with self._stats_lock:
            if write:
                self.degraded_writes += 1
            else:
                self.degraded_reads += 1
            warn_now = not self._warned
            self._warned = True
        if warn_now:
            warnings.warn(
                f"remote store {self.remote.describe()} unreachable "
                f"({exc}); degrading to local-only operation — re-sync "
                "with `repro cache push` once it is back",
                RuntimeWarning,
                stacklevel=3,
            )

    def get_text(self, kind: str, key: str) -> Optional[str]:
        text = self.local.get_text(kind, key)
        if text is not None:
            return text
        try:
            text = self.remote.get_text(kind, key)
        except StoreUnavailable as exc:
            if not self.degrade:
                raise
            self._remote_down(write=False, exc=exc)
            return None
        if text is not None:
            self.local.put_text(kind, key, text)
        return text

    def put_text(self, kind: str, key: str, text: str) -> None:
        self.local.put_text(kind, key, text)
        try:
            self.remote.put_text(kind, key, text)
        except StoreUnavailable as exc:
            if not self.degrade:
                raise
            self._remote_down(write=True, exc=exc)

    def has(self, kind: str, key: str) -> bool:
        if self.local.has(kind, key):
            return True
        try:
            return self.remote.has(kind, key)
        except StoreUnavailable as exc:
            if not self.degrade:
                raise
            self._remote_down(write=False, exc=exc)
            return False

    def get_many(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], Optional[str]]:
        """Local first, then one batched remote fetch for the misses.

        Remote hits are written back to the local layer (same
        read-through contract as :meth:`get_text`), so a text crosses
        the network once per batch of :attr:`RemoteHTTPBackend
        .batch_size` and never again.  Only texts that were read are
        written back: :meth:`has_many` copies nothing, so a warm resume
        that only checks an artifact exists leaves it upstream (``repro
        cache pull`` pre-warms a local layer with everything).
        """
        wanted = list(pairs)
        out: Dict[Tuple[str, str], Optional[str]] = {}
        misses: List[Tuple[str, str]] = []
        for kind, key in wanted:
            text = self.local.get_text(kind, key)
            if text is None:
                misses.append((kind, key))
            else:
                out[(kind, key)] = text
        if misses:
            try:
                fetched = self.remote.get_many(misses)
            except StoreUnavailable as exc:
                if not self.degrade:
                    raise
                self._remote_down(write=False, exc=exc)
                fetched = {pair: None for pair in misses}
            for (kind, key), text in fetched.items():
                if text is not None:
                    self.local.put_text(kind, key, text)
                out[(kind, key)] = text
        return out

    def has_many(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], bool]:
        wanted = list(pairs)
        out: Dict[Tuple[str, str], bool] = {}
        misses: List[Tuple[str, str]] = []
        for kind, key in wanted:
            if self.local.has(kind, key):
                out[(kind, key)] = True
            else:
                misses.append((kind, key))
        if misses:
            try:
                out.update(self.remote.has_many(misses))
            except StoreUnavailable as exc:
                if not self.degrade:
                    raise
                self._remote_down(write=False, exc=exc)
                out.update({pair: False for pair in misses})
        return out

    def entries(self) -> List[ArtifactEntry]:
        try:
            merged = {(e.kind, e.key): e for e in self.remote.entries()}
        except StoreUnavailable as exc:
            if not self.degrade:
                raise
            self._remote_down(write=False, exc=exc)
            merged = {}
        for entry in self.local.entries():
            merged[(entry.kind, entry.key)] = entry
        return [merged[pair] for pair in sorted(merged)]

    def delete(self, kind: str, key: str) -> bool:
        local = self.local.delete(kind, key)
        try:
            remote = self.remote.delete(kind, key)
        except StoreUnavailable as exc:
            if not self.degrade:
                raise
            self._remote_down(write=True, exc=exc)
            remote = False
        return local or remote

    def close(self) -> None:
        self.local.close()
        self.remote.close()

    def describe(self) -> str:
        return f"tier({self.local.describe()} -> {self.remote.describe()})"


#: URL schemes ``backend_from_url`` understands, for error messages.
SUPPORTED_SCHEMES = ("dir:PATH", "sqlite:PATH", "http://HOST:PORT")


def backend_from_url(url: Union[str, StoreBackend]) -> StoreBackend:
    """Resolve a store URL to a backend instance.

    ``dir:PATH`` (or a bare path) opens the directory layout,
    ``sqlite:PATH`` the single-file database, and ``http://`` /
    ``https://`` a remote ``repro serve-cache``.  An already-constructed
    backend passes through unchanged, so APIs can accept either form.
    """
    if isinstance(url, StoreBackend):
        return url
    if url.startswith("dir:"):
        return DirBackend(url[len("dir:"):])
    if url.startswith("sqlite:"):
        return SqliteBackend(url[len("sqlite:"):])
    if url.startswith(("http://", "https://")):
        return RemoteHTTPBackend(url)
    scheme, sep, _rest = url.partition(":")
    if (
        sep
        and "/" not in scheme
        and scheme not in ("", ".")
        # A single letter before ":" is a Windows drive (C:\cache), not
        # a URL scheme — fall through to the bare-path branch.
        and not (len(scheme) == 1 and scheme.isalpha())
    ):
        raise ValueError(
            f"unsupported store URL scheme {scheme!r} in {url!r}; "
            f"supported: {', '.join(SUPPORTED_SCHEMES)} or a bare path"
        )
    return DirBackend(url)  # a bare path is a directory store


@dataclass
class SyncStats:
    """What one :func:`sync_stores` pass did."""

    copied: int = 0
    skipped: int = 0
    bytes_copied: int = 0


def sync_stores(
    source: Union[str, StoreBackend],
    destination: Union[str, StoreBackend],
) -> SyncStats:
    """Copy every artifact ``source`` has and ``destination`` lacks.

    Content keys make the sync idempotent and conflict-free: an artifact
    the destination already holds under the same ``(kind, key)`` is the
    same bytes by construction, so it is skipped, never rewritten.  Text
    moves verbatim (no JSON re-encoding), keeping the byte-identical
    guarantee across any chain of pushes.  The destination's inventory
    is fetched once up front (one ``/v1/list`` round trip for a remote)
    rather than probed per artifact, so pushing a 100k-artifact cache
    costs one listing, not 100k HEAD requests.  This is the engine
    behind ``repro cache push`` / ``pull``.  Backends it opens from URL
    strings are closed on return; caller-supplied backends stay open.
    """
    src = backend_from_url(source)
    dst = backend_from_url(destination)
    stats = SyncStats()
    try:
        existing = {(entry.kind, entry.key) for entry in dst.entries()}
        for entry in src.entries():
            if (entry.kind, entry.key) in existing:
                stats.skipped += 1
                continue
            text = src.get_text(entry.kind, entry.key)
            if text is None:  # vanished mid-walk, or unreadable: skip honestly
                stats.skipped += 1
                continue
            dst.put_text(entry.kind, entry.key, text)
            stats.copied += 1
            stats.bytes_copied += len(text.encode("utf-8"))
    finally:
        for given, backend in ((source, src), (destination, dst)):
            if isinstance(given, str):
                backend.close()
    return stats
