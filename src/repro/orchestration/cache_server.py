"""``repro serve-cache``: a tiny HTTP artifact-cache server (stdlib only).

One process serves one :class:`~repro.orchestration.backends
.StoreBackend` (directory or SQLite) to any number of sweep machines
speaking the matching :class:`~repro.orchestration.backends
.RemoteHTTPBackend` client — typically tiered over a local layer, so
the fleet shares one warm cache while reads stay local after the first
hit.  The protocol is deliberately minimal JSON-over-HTTP:

====================================  =======================================
``GET  /v1/artifact/<kind>/<key>``    canonical JSON text, or 404
``HEAD /v1/artifact/<kind>/<key>``    existence probe (200 / 404)
``PUT  /v1/artifact/<kind>/<key>``    store the request body (must be JSON)
``DELETE /v1/artifact/<kind>/<key>``  remove one artifact (204 / 404)
``GET  /v1/list``                     ``{"entries": [{kind,key,size,mtime}]}``
``GET  /v1/stats``                    ``{"entries": N, "bytes": M}``
``GET  /v1/ping``                     ``{"ok": true, "store": "<url>", "fleet": bool}``
``POST /v1/artifacts/get``            batched GET: ``{"items": [{kind,key}]}``
``POST /v1/artifacts/head``           batched HEAD (items are booleans)
====================================  =======================================

The two batched routes answer one round trip per
:attr:`~repro.orchestration.backends.RemoteHTTPBackend.batch_size`
chunk of keys (reply ``items`` are positional: text-or-null for
``get``, booleans for ``head``); clients feature-detect them and fall
back to per-key calls against servers predating this protocol
revision.

With a :class:`~repro.orchestration.coordinator.FleetCoordinator`
attached (``repro serve-cache --fleet``) the server additionally speaks
the fleet work-stealing protocol on ``/v1/fleet/...`` (``POST enqueue /
lease / heartbeat / complete``, ``GET status`` — see
:mod:`repro.orchestration.coordinator` and ``docs/fleet.md``), so one
process hands out job leases *and* serves the artifacts those jobs
read and write.

Artifact text passes through the server verbatim — it never re-encodes
payloads — so a cache populated over HTTP is byte-identical to one the
same backend would have written locally.  The server is a
:class:`http.server.ThreadingHTTPServer`; both shipped backends are
thread-safe (atomic renames / a locked WAL connection).  Handler
threads are protected from abusive or broken clients by a configurable
request-body cap (HTTP 413) and a per-connection socket timeout, so a
stalled upload cannot wedge a thread forever.  There is no
authentication: serve on a trusted network (the typical deployment is
one lab/CI subnet), or front it with a reverse proxy.  See
``docs/storage.md`` for the two-machine walkthrough.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Optional, Tuple
from urllib.parse import unquote

from repro.orchestration.backends import StoreBackend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.orchestration.coordinator import FleetCoordinator

#: Route arguments (artifact kind / key, run ids) and batch items must be
#: plain tokens — this is what keeps a DirBackend-backed server inside its
#: root (no separators, no dotfiles).
_SAFE_SEGMENT = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: Refuse absurd artifact uploads rather than buffering them (64 MiB).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default per-connection socket timeout: a client that stops sending
#: mid-request is disconnected instead of pinning a handler thread.
DEFAULT_SOCKET_TIMEOUT_S = 60.0


_NO_FLEET = (
    "fleet endpoints disabled; restart the server with "
    "`repro serve-cache --fleet`"
)

#: Refuse batch requests larger than any sane client chunk — the
#: shipped client never sends more than its ``batch_size`` (default
#: 128), so this only trips hand-rolled abuse.
MAX_BATCH_ITEMS = 4096

_ARTIFACT = r"/v1/artifact/([^/]*)/([^/]*)"


class _CacheRequestHandler(BaseHTTPRequestHandler):
    """Routes the /v1 protocol onto ``self.server.backend``.

    :attr:`routes` is the whole protocol: one ``(method, pattern,
    handler)`` entry per route, where ``pattern`` must match the full
    request target and its groups, percent-decoded, become the handler
    method's arguments.  Every HTTP verb goes through :meth:`_dispatch`;
    a subclass adds routes by extending the table and gates them all
    by overriding :meth:`_authorized`.
    """

    server_version = "repro-cache/1.0"
    protocol_version = "HTTP/1.1"

    routes: Tuple[Tuple[str, str, str], ...] = (
        ("GET", "/v1/ping", "_ping"),
        ("GET", "/v1/list", "_list"),
        ("GET", "/v1/stats", "_stats"),
        ("GET", _ARTIFACT, "_get_artifact"),
        ("HEAD", _ARTIFACT, "_head_artifact"),
        ("PUT", _ARTIFACT, "_put_artifact"),
        ("DELETE", _ARTIFACT, "_delete_artifact"),
        ("POST", "/v1/artifacts/(get|head)", "_batch"),
        ("GET", "/v1/fleet/status", "_fleet_status"),
        (
            "POST",
            "/v1/fleet/(enqueue|lease|heartbeat|complete|withdraw)",
            "_fleet",
        ),
    )

    # -- plumbing ---------------------------------------------------------
    @property
    def backend(self) -> StoreBackend:
        return self.server.backend

    def setup(self) -> None:
        # Per-connection socket timeout: handle_one_request treats a
        # timed-out read as "close the connection", so a stalled client
        # releases its handler thread instead of wedging it.
        self.timeout = self.server.socket_timeout_s
        BaseHTTPRequestHandler.setup(self)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if not self.server.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _authorized(self) -> bool:
        """Whether to serve this request; the cache trusts its network."""
        return True

    def _dispatch(self) -> None:
        """Authorize, then hand the request to its route's handler."""
        if not self._authorized():
            # Exactly this body on every auth failure: no path echo, no
            # missing-vs-wrong-vs-expired distinction to probe.
            self._send_json(401, {"error": "unauthorized"})
            return
        for method, pattern, handler in self.routes:
            matched = re.fullmatch(pattern, self.path)
            if method == self.command and matched:
                args = [unquote(group) for group in matched.groups()]
                if all(_SAFE_SEGMENT.match(arg) for arg in args):
                    getattr(self, handler)(*args)
                    return
        self._unrecognized()

    do_GET = do_HEAD = do_PUT = do_POST = do_DELETE = _dispatch

    def _send(self, status: int, body: bytes = b"",
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body and self.command != "HEAD":
            self.wfile.write(body)

    def _send_json(self, status: int, document: dict) -> None:
        # repro: lint-ignore[RPR002] protocol responses are transport;
        # artifact payload bytes pass through _send verbatim, unsorted
        self._send(status, json.dumps(document).encode("utf-8"))

    def _bad_request(self, message: str) -> None:
        self._send_json(400, {"error": message})

    def _unrecognized(self) -> None:
        self._bad_request(f"unrecognized path {self.path!r}")

    def _read_body(self) -> Optional[bytes]:
        """The request body, bounded; sends the error response on None.

        Enforces the server's configurable ``max_body_bytes`` (HTTP 413)
        alongside the missing/negative Content-Length rejections, so a
        handler thread never buffers an absurd upload or blocks forever
        on a length the client will never send.
        """
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._bad_request("missing Content-Length")
            return None
        if length < 0:
            # read(-1) would block on the socket until the client
            # hangs up — refuse instead of tying up a handler thread.
            self._bad_request("negative Content-Length")
            return None
        if length > self.server.max_body_bytes:
            self._send_json(
                413,
                {
                    "error": f"body of {length} bytes exceeds the "
                    f"server limit of {self.server.max_body_bytes}"
                },
            )
            return None
        return self.rfile.read(length)

    # -- routes -----------------------------------------------------------
    def _ping(self) -> None:
        self._send_json(
            200,
            {
                "ok": True,
                "store": self.backend.describe(),
                "fleet": self.server.coordinator is not None,
            },
        )

    def _list(self) -> None:
        entries = [
            {"kind": e.kind, "key": e.key, "size": e.size, "mtime": e.mtime}
            for e in self.backend.entries()
        ]
        self._send_json(200, {"entries": entries})

    def _stats(self) -> None:
        entries = self.backend.entries()
        self._send_json(
            200,
            {"entries": len(entries), "bytes": sum(e.size for e in entries)},
        )

    def _get_artifact(self, kind: str, key: str) -> None:
        text = self.backend.get_text(kind, key)
        if text is None:
            self._send_json(404, {"error": "not found"})
            return
        self._send(200, text.encode("utf-8"))

    def _head_artifact(self, kind: str, key: str) -> None:
        self._send(200 if self.backend.has(kind, key) else 404)

    def _put_artifact(self, kind: str, key: str) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            text = body.decode("utf-8")
            json.loads(text)  # validate only; stored verbatim
        except (UnicodeDecodeError, ValueError):
            self._bad_request("body is not valid JSON")
            return
        self.backend.put_text(kind, key, text)
        self._send(204)

    def _delete_artifact(self, kind: str, key: str) -> None:
        if self.backend.delete(kind, key):
            self._send(204)
        else:
            self._send_json(404, {"error": "not found"})

    def _batch(self, verb: str) -> None:
        """Batched multi-key artifact reads (``/v1/artifacts/get|head``)."""
        if not self.server.batch_endpoints:
            self._unrecognized()
            return
        body = self._read_body()
        if body is None:
            return
        try:
            document = json.loads(body.decode("utf-8"))
            items = document["items"]
            if not isinstance(items, list):
                raise ValueError("items must be a list")
        except (UnicodeDecodeError, ValueError, TypeError, KeyError):
            self._bad_request("body is not {\"items\": [...]}")
            return
        if len(items) > MAX_BATCH_ITEMS:
            self._bad_request(
                f"batch of {len(items)} items exceeds the server "
                f"limit of {MAX_BATCH_ITEMS}"
            )
            return
        pairs = []
        for item in items:
            if not isinstance(item, dict):
                self._bad_request("each item must be {\"kind\", \"key\"}")
                return
            kind, key = str(item.get("kind", "")), str(item.get("key", ""))
            if not (_SAFE_SEGMENT.match(kind) and _SAFE_SEGMENT.match(key)):
                self._bad_request(f"invalid kind/key {kind!r}/{key!r}")
                return
            pairs.append((kind, key))
        if verb == "head":
            probed = self.backend.has_many(pairs)
            self._send_json(
                200, {"items": [probed[pair] for pair in pairs]}
            )
            return
        fetched = self.backend.get_many(pairs)
        self._send_json(200, {"items": [fetched[pair] for pair in pairs]})

    def _fleet_status(self) -> None:
        coordinator = self.server.coordinator
        if coordinator is None:
            self._send_json(404, {"error": _NO_FLEET})
            return
        self._send_json(200, coordinator.status())

    def _fleet(self, verb: str) -> None:
        """The fleet protocol's POST verbs, onto the coordinator."""
        coordinator = self.server.coordinator
        if coordinator is None:
            self._send_json(404, {"error": _NO_FLEET})
            return
        body = self._read_body()
        if body is None:
            return
        try:
            document = json.loads(body.decode("utf-8"))
            if not isinstance(document, dict):
                raise ValueError("expected a JSON object")
        except (UnicodeDecodeError, ValueError):
            self._bad_request("body is not a JSON object")
            return
        try:
            if verb == "enqueue":
                reply = coordinator.enqueue(document["jobs"])
            elif verb == "lease":
                reply = coordinator.lease(
                    document["worker"], int(document.get("max_jobs", 1))
                )
            elif verb == "heartbeat":
                reply = coordinator.heartbeat(document["worker"])
            elif verb == "withdraw":
                reply = coordinator.withdraw(document["keys"])
            else:  # complete
                reply = coordinator.complete(
                    document["worker"],
                    document["key"],
                    document["status"],
                    error=document.get("error"),
                )
        except (KeyError, TypeError, ValueError) as exc:
            self._bad_request(f"invalid fleet request: {exc}")
            return
        self._send_json(200, reply)


class CacheServer:
    """A running ``serve-cache`` instance (embeddable; used by the CLI).

    Binds on construction — ``port=0`` picks an ephemeral port, read
    back from :attr:`port` / :attr:`url` — and serves from a background
    thread after :meth:`start`.  Usable as a context manager::

        with CacheServer(backend_from_url("dir:.repro_cache")) as server:
            client = RemoteHTTPBackend(server.url)
            ...

    The CLI instead calls :meth:`serve_forever` on the main thread.
    """

    def __init__(
        self,
        backend: StoreBackend,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
        coordinator: Optional["FleetCoordinator"] = None,
        max_body_bytes: int = MAX_BODY_BYTES,
        socket_timeout_s: Optional[float] = DEFAULT_SOCKET_TIMEOUT_S,
        batch_endpoints: bool = True,
        handler_class: type = _CacheRequestHandler,
    ) -> None:
        self.backend = backend
        self.coordinator = coordinator
        # ``batch_endpoints=False`` simulates a server predating the
        # batched-artifact protocol (mixed-version fleet tests);
        # ``handler_class`` lets the job service layer its routes on
        # top of this protocol without a second HTTP server.
        self._httpd = ThreadingHTTPServer((host, port), handler_class)
        self._httpd.daemon_threads = True
        self._httpd.backend = backend
        self._httpd.quiet = quiet
        self._httpd.coordinator = coordinator
        self._httpd.max_body_bytes = max_body_bytes
        self._httpd.socket_timeout_s = socket_timeout_s
        self._httpd.batch_endpoints = batch_endpoints
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        """The base URL clients pass to ``--cache-url``."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CacheServer":
        """Serve from a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI mode)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Shut the server down and release the socket; idempotent.

        ``shutdown()`` handshakes with a *running* ``serve_forever``
        loop, so it is only issued when the background thread owns one;
        after a foreground ``serve_forever`` returned (CLI Ctrl-C) the
        socket just needs closing.
        """
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "CacheServer":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()

