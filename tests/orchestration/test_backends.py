"""Storage backend contract: every backend speaks the same protocol.

One parametrized suite drives DirBackend, SqliteBackend and a
RemoteHTTPBackend talking to a live in-process cache server through the
shared get/put/has/entries/delete contract, plus backend-specific
behavior: dir-layout byte compatibility, sqlite cross-instance
persistence, tier write-back, URL resolution and store syncing.
"""

import json
import os

import pytest

from repro.orchestration import (
    ArtifactStore,
    CacheServer,
    DirBackend,
    RemoteHTTPBackend,
    SqliteBackend,
    StoreUnavailable,
    TieredBackend,
    TieredStore,
    backend_from_url,
    resolve_store,
    sync_stores,
)


@pytest.fixture(params=["dir", "sqlite", "remote"])
def backend(request, tmp_path):
    if request.param == "dir":
        yield DirBackend(str(tmp_path / "cache"))
    elif request.param == "sqlite":
        with SqliteBackend(str(tmp_path / "cache.db")) as made:
            yield made
    else:
        with CacheServer(DirBackend(str(tmp_path / "served"))) as server:
            yield RemoteHTTPBackend(server.url)


def test_backend_roundtrip(backend):
    assert backend.get_text("gp", "k") is None
    assert not backend.has("gp", "k")
    backend.put_text("gp", "k", '{"x": 1.5}')
    assert backend.has("gp", "k")
    assert backend.get_text("gp", "k") == '{"x": 1.5}'


def test_backend_text_is_byte_preserved(backend):
    # The store's canonical text must come back verbatim — including
    # float repr digits — or cross-backend parity would break.
    text = json.dumps({"v": 0.1 + 0.2, "order": {"b": 1, "a": 2}})
    backend.put_text("fidelity", "key", text)
    assert backend.get_text("fidelity", "key") == text


def test_backend_overwrite_and_delete(backend):
    backend.put_text("lg", "k", '{"n": 1}')
    backend.put_text("lg", "k", '{"n": 2}')
    assert backend.get_text("lg", "k") == '{"n": 2}'
    assert backend.delete("lg", "k")
    assert not backend.delete("lg", "k")
    assert backend.get_text("lg", "k") is None


def test_backend_entries_inventory(backend):
    backend.put_text("gp", "a", '{"x": 1}')
    backend.put_text("lg", "b", '{"y": 22}')
    entries = {(e.kind, e.key): e for e in backend.entries()}
    assert set(entries) == {("gp", "a"), ("lg", "b")}
    assert entries[("gp", "a")].size == len('{"x": 1}')
    assert all(e.mtime > 0 for e in entries.values())


def test_dir_backend_matches_historical_layout(tmp_path):
    # Byte-for-byte the layout ArtifactStore always wrote: an existing
    # .repro_cache keeps working, and no stray tmp files survive a put.
    root = str(tmp_path / "cache")
    made = DirBackend(root)
    made.put_text("lg", "abc", '{"positions": [1, 2]}')
    path = os.path.join(root, "lg", "abc.json")
    assert open(path).read() == '{"positions": [1, 2]}'
    assert not [p for p in os.listdir(os.path.dirname(path)) if p.endswith(".tmp")]
    # entries() never mistakes runs/<run_id>/*.json for artifacts.
    runs = tmp_path / "cache" / "runs" / "run1"
    runs.mkdir(parents=True)
    (runs / "manifest.json").write_text("{}")
    assert {(e.kind, e.key) for e in made.entries()} == {("lg", "abc")}


def test_sqlite_backend_persists_across_instances(tmp_path):
    path = str(tmp_path / "cache.db")
    with SqliteBackend(path) as first:
        first.put_text("gp", "k", '{"x": 3}')
    with SqliteBackend(path) as second:
        assert second.get_text("gp", "k") == '{"x": 3}'


def test_sqlite_backend_concurrent_instances(tmp_path):
    # Two open handles on one database (two sharded runs on a shared
    # filesystem): writes through either are visible to the other.
    path = str(tmp_path / "cache.db")
    with SqliteBackend(path) as a, SqliteBackend(path) as b:
        a.put_text("gp", "from-a", '{"n": 1}')
        b.put_text("gp", "from-b", '{"n": 2}')
        assert a.get_text("gp", "from-b") == '{"n": 2}'
        assert b.get_text("gp", "from-a") == '{"n": 1}'


def test_tiered_backend_write_back_and_dual_write(tmp_path):
    local = DirBackend(str(tmp_path / "local"))
    remote = DirBackend(str(tmp_path / "remote"))
    tier = TieredBackend(local, remote)

    remote.put_text("gp", "warm", '{"x": 1}')
    assert tier.get_text("gp", "warm") == '{"x": 1}'
    assert local.get_text("gp", "warm") == '{"x": 1}'  # written back

    tier.put_text("lg", "fresh", '{"y": 2}')
    assert local.get_text("lg", "fresh") == '{"y": 2}'
    assert remote.get_text("lg", "fresh") == '{"y": 2}'

    assert tier.has("gp", "warm") and not tier.has("gp", "absent")
    assert tier.get_text("gp", "absent") is None
    assert {(e.kind, e.key) for e in tier.entries()} == {
        ("gp", "warm"),
        ("lg", "fresh"),
    }


def test_backend_from_url_schemes(tmp_path):
    assert isinstance(backend_from_url(f"dir:{tmp_path}/a"), DirBackend)
    assert isinstance(backend_from_url(str(tmp_path / "b")), DirBackend)
    sqlite = backend_from_url(f"sqlite:{tmp_path}/c.db")
    assert isinstance(sqlite, SqliteBackend)
    sqlite.close()
    assert isinstance(backend_from_url("http://host:1"), RemoteHTTPBackend)
    assert isinstance(backend_from_url("https://host:1"), RemoteHTTPBackend)
    with pytest.raises(ValueError, match="unsupported store URL scheme"):
        backend_from_url("s3://bucket/prefix")
    # passthrough for already-built backends
    made = DirBackend(str(tmp_path / "d"))
    assert backend_from_url(made) is made


def test_resolve_store_tiers_http_over_cache_dir(tmp_path):
    memory = resolve_store(None, None)
    assert memory.backend is None and memory.describe() == "memory:"
    plain = resolve_store(None, str(tmp_path / "c"))
    assert isinstance(plain.backend, DirBackend)
    direct = resolve_store("http://host:1", None)
    assert isinstance(direct.backend, RemoteHTTPBackend)
    tiered = resolve_store("http://host:1", str(tmp_path / "c"))
    assert isinstance(tiered.backend, TieredBackend)
    assert isinstance(tiered.backend.local, DirBackend)
    assert isinstance(tiered.backend.remote, RemoteHTTPBackend)
    local_url = resolve_store(f"sqlite:{tmp_path}/x.db", str(tmp_path / "c"))
    assert isinstance(local_url.backend, SqliteBackend)  # no local tiering
    local_url.close()


def test_artifact_store_from_url_and_backend_exclusivity(tmp_path):
    store = ArtifactStore.from_url(f"dir:{tmp_path}/cache")
    put = store.put("gp", "k", {"x": (0.1 + 0.2)})
    assert ArtifactStore(str(tmp_path / "cache")).get("gp", "k") == put
    with pytest.raises(ValueError):
        ArtifactStore(root=str(tmp_path / "a"), backend=DirBackend(str(tmp_path / "b")))


def test_sync_stores_round_trip(tmp_path):
    source = DirBackend(str(tmp_path / "src"))
    source.put_text("gp", "a", '{"x": 1}')
    source.put_text("lg", "b", '{"y": 2}')

    first = sync_stores(source, f"sqlite:{tmp_path}/dst.db")
    assert (first.copied, first.skipped) == (2, 0)
    assert first.bytes_copied == len('{"x": 1}') + len('{"y": 2}')

    # Idempotent: a second pass copies nothing.
    again = sync_stores(source, f"sqlite:{tmp_path}/dst.db")
    assert (again.copied, again.skipped) == (0, 2)

    # Round trip back into an empty dir store: identical bytes.
    back = sync_stores(f"sqlite:{tmp_path}/dst.db", f"dir:{tmp_path}/back")
    assert back.copied == 2
    assert open(tmp_path / "back" / "gp" / "a.json").read() == '{"x": 1}'


def test_sync_stores_closes_only_the_backends_it_opens(tmp_path, monkeypatch):
    closed = []
    close = SqliteBackend.close

    def recording_close(self):
        closed.append(self.path)
        close(self)

    monkeypatch.setattr(SqliteBackend, "close", recording_close)
    supplied = SqliteBackend(str(tmp_path / "src.db"))
    supplied.put_text("gp", "a", '{"x": 1}')
    dst = f"{tmp_path}/dst.db"

    assert sync_stores(supplied, f"sqlite:{dst}").copied == 1
    assert closed == [dst]
    # The caller's backend is still open and usable.
    assert supplied.get_text("gp", "a") == '{"x": 1}'
    supplied.close()


def test_tiered_store_serves_sweep_artifacts(tmp_path):
    # TieredStore is the ArtifactStore face of TieredBackend: payloads
    # computed through it land in both layers and read back canonical.
    store = TieredStore(f"dir:{tmp_path}/local", f"dir:{tmp_path}/remote")
    put = store.put("fidelity", "k", {"samples": (0.25, 0.5)})
    assert put == {"samples": [0.25, 0.5]}
    fresh_local = ArtifactStore(str(tmp_path / "local"))
    fresh_remote = ArtifactStore(str(tmp_path / "remote"))
    assert fresh_local.get("fidelity", "k") == put
    assert fresh_remote.get("fidelity", "k") == put


def test_remote_backend_unreachable_raises(tmp_path):
    # Bind-then-close guarantees a dead port; a down server must raise
    # loudly, never masquerade as an empty cache.
    server = CacheServer(DirBackend(str(tmp_path / "cache")))
    url = server.url
    server.stop()
    client = RemoteHTTPBackend(url, timeout_s=2.0)
    with pytest.raises(StoreUnavailable):
        client.get_text("gp", "k")
