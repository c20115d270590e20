"""The artifact store: an in-memory layer over a pluggable backend.

Artifacts are JSON documents addressed by job key.  The store keeps an
in-memory layer for the current run and, when given a persistence
backend (see :mod:`repro.orchestration.backends`), writes every payload
through it as canonical JSON text.  The default backend is the
historical directory layout — ``<root>/<kind>/<key>.json`` under
``.repro_cache/`` by convention, atomic tmp-file + rename writes — so
``ArtifactStore(root)`` behaves exactly as it always has and existing
caches keep working; a single-file SQLite database
(``sqlite:PATH``) and a remote ``repro serve-cache``
(``http://host:port``), optionally tiered behind a local layer, slot in
through :meth:`ArtifactStore.from_url` / :func:`resolve_store` without
the executor noticing.  Interrupted sweeps never leave half-written
artifacts and a ``--resume`` run picks up exactly where the previous
one stopped, whichever backend persisted them.

Payloads are canonicalized through a JSON round trip on ``put`` so the
in-memory and persisted representations are byte-for-byte the same
thing: a job consuming a freshly computed payload sees exactly what it
would have read back from the backend (floats round-trip exactly; dict
insertion order is preserved).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.orchestration.backends import (
    DirBackend,
    RemoteHTTPBackend,
    StoreBackend,
    TieredBackend,
    backend_from_url,
)


class ArtifactStore:
    """JSON artifact cache: in-memory, optionally persisted by a backend.

    The store is the cache behind ``--resume`` / ``--cache-dir`` /
    ``--cache-url``: payloads are addressed by job content key (``has``
    / ``get`` / ``put``), live in memory for the current run, and — when
    a backend is attached — persist through it as canonical JSON text.
    Every client that shares a backend shares the artifacts: a sweep, a
    ``repro tables`` regeneration and a sharded run on another machine
    all resolve the same content keys to the same bytes, whether the
    backend is a directory, a SQLite file or a remote cache server.

    The API is deliberately just get/put/has over JSON documents, and
    the persistence contract below it (:class:`~repro.orchestration
    .backends.StoreBackend`) is get/put/has over JSON *text* — so
    alternative backends slot in without touching the executor.
    ``put`` returns the canonicalized (JSON round-trip) payload, and
    callers must use that returned form — it is byte-identical to what
    a later ``get`` would read back from any backend.

    ``ArtifactStore(root)`` keeps the historical signature: a bare
    directory path opens the byte-compatible directory backend.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        backend: Optional[StoreBackend] = None,
    ) -> None:
        if root is not None and backend is not None:
            raise ValueError("pass either root or backend, not both")
        if root is not None:
            backend = DirBackend(root)
        self.root = root
        self.backend = backend
        self._memory: Dict[str, dict] = {}
        self._texts: Dict[str, str] = {}  # fetched, not yet decoded

    @classmethod
    def from_url(cls, url: Union[str, StoreBackend]) -> "ArtifactStore":
        """Open a store from a URL: ``dir:PATH``, ``sqlite:PATH``,
        ``http://host:port``, or a bare directory path."""
        return cls(backend=backend_from_url(url))

    def describe(self) -> str:
        """The store's URL form (``memory:`` when nothing persists)."""
        return "memory:" if self.backend is None else self.backend.describe()

    def has(self, kind: str, key: str) -> bool:
        """True when an artifact exists in memory or in the backend."""
        if key in self._memory or key in self._texts:
            return True
        return self.backend is not None and self.backend.has(kind, key)

    def get(self, kind: str, key: str) -> Optional[dict]:
        """Load an artifact payload, or None when absent or corrupt.

        A text :meth:`fetch` pulled is decoded here, on first read, and
        never re-read from the backend.
        """
        if key in self._memory:
            return self._memory[key]
        text = self._texts.pop(key, None)
        if text is None:
            if self.backend is None:
                return None
            text = self.backend.get_text(kind, key)
            if text is None:
                return None
        try:
            payload = json.loads(text)
        except ValueError:
            return None  # corrupt artifact: treat as a miss, recompute
        self._memory[key] = payload
        return payload

    def fetch(self, pairs: Iterable[Tuple[str, str]]) -> Set[str]:
        """Pull several artifacts' texts in one pass, decoding none.

        Keys already in memory count as present; the rest go through
        the backend's :meth:`~repro.orchestration.backends.StoreBackend
        .get_many`, which remote backends batch — a resume check over N
        artifacts costs ``ceil(N / batch_size)`` round trips instead of
        N.  Returns the keys present.  A later :meth:`get` for one of
        them decodes the fetched text without touching the backend, so
        a corrupt artifact counts as present here and reads as None
        there.
        """
        found: Set[str] = set()
        misses: List[Tuple[str, str]] = []
        for kind, key in pairs:
            if key in self._memory or key in self._texts:
                found.add(key)
            else:
                misses.append((kind, key))
        if self.backend is not None and misses:
            for (_kind, key), text in self.backend.get_many(misses).items():
                if text is not None:
                    self._texts[key] = text
                    found.add(key)
        return found

    def prefetch(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], Optional[dict]]:
        """:meth:`fetch` several artifacts, then decode each one.

        Returns ``(kind, key) -> payload`` (None = absent or corrupt),
        and a subsequent :meth:`get` for any returned hit is a pure
        memory read.
        """
        wanted = list(pairs)
        found = self.fetch(wanted)
        return {
            (kind, key): self.get(kind, key) if key in found else None
            for kind, key in wanted
        }

    def put(self, kind: str, key: str, payload: dict) -> dict:
        """Store a payload; returns the canonicalized (JSON round-trip) form."""
        text = json.dumps(payload)
        canonical = json.loads(text)
        self._memory[key] = canonical
        if self.backend is not None:
            self.backend.put_text(kind, key, text)
        return canonical

    def close(self) -> None:
        """Release the backend's resources (connections); idempotent."""
        if self.backend is not None:
            self.backend.close()


class TieredStore(ArtifactStore):
    """An artifact store with a fast local layer over a remote backend.

    Reads are served locally when possible; remote hits are written back
    to the local layer, and writes go to both — so a fleet of sweep
    machines behind one ``repro serve-cache`` shares a warm cache while
    repeated reads stay off the network.  Layers may be given as
    backends or store URLs::

        store = TieredStore("dir:.repro_cache", "http://cache-host:8765")
        run_sweep(spec, store=store, resume=True)

    The CLI builds exactly this when ``--cache-url http://...`` is
    combined with a ``--cache-dir`` (the default).
    """

    def __init__(
        self,
        local: Union[str, StoreBackend],
        remote: Union[str, StoreBackend],
    ) -> None:
        super().__init__(
            backend=TieredBackend(
                backend_from_url(local), backend_from_url(remote)
            )
        )


def resolve_store(
    cache_url: Optional[str] = None,
    cache_dir: Optional[str] = None,
) -> ArtifactStore:
    """Build the store the CLI flags describe.

    * Neither flag → memory-only store (``--no-cache``).
    * ``cache_dir`` only → the historical directory store.
    * ``cache_url`` of ``dir:`` / ``sqlite:`` → that backend (a local
      ``cache_dir`` would be redundant tiering over another local
      store, so it is ignored for artifacts — it still hosts run
      outputs).
    * An ``http(s)://`` ``cache_url`` *plus* a ``cache_dir`` → a
      :class:`TieredStore`: local fast layer, remote shared layer.
      Without a ``cache_dir`` the remote is used directly.
    """
    if cache_url is None:
        return ArtifactStore(cache_dir)
    backend = backend_from_url(cache_url)
    if isinstance(backend, RemoteHTTPBackend) and cache_dir is not None:
        return TieredStore(DirBackend(cache_dir), backend)
    return ArtifactStore(backend=backend)
