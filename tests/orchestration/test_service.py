"""Acceptance suite for placement-as-a-service (``repro serve``).

The headline guarantees are pinned against a *live* service on an
ephemeral port: two authenticated tenants submitting overlapping
sweeps concurrently get results bit-identical to serial
:func:`~repro.orchestration.sweep.run_sweep` runs while the overlap is
computed exactly once fleet-wide (the per-run manifests' ``computed``
counters sum to the size of the job-key union); every endpoint rejects
missing/wrong/expired tokens with an opaque 401; cancellation
withdraws only jobs no other tenant needs; and a warm-cache resume
check over N artifacts costs ``ceil(N / batch_size)`` HTTP round trips
through the batched artifact endpoints.
"""

import dataclasses
import http.client
import json
import math
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.config import QGDPConfig
from repro.crosstalk.parameters import NoiseParameters
from repro.orchestration import (
    ArtifactStore,
    RemoteHTTPBackend,
    SweepSpec,
    config_to_dict,
    noise_to_dict,
    plan_sweep,
    read_jsonl,
    run_sweep,
)
from repro.orchestration.service import (
    JobService,
    ServiceClient,
    ServiceError,
    ServiceToken,
    _ServiceRequestHandler,
    spec_from_document,
)

_CFG = config_to_dict(QGDPConfig(gp_iterations=40))

ALICE = ServiceToken("alice-secret", tenant="alice")
BOB = ServiceToken("bob-secret", tenant="bob")


def _spec_doc(engines=("qgdp",), num_seeds=2, benchmarks=("bv-4",)):
    return {
        "topologies": ["grid"],
        "benchmarks": list(benchmarks),
        "engines": list(engines),
        "num_seeds": num_seeds,
        "config": _CFG,
    }


def _plan_keys(doc):
    """The content-addressed job keys a submission plans to."""
    plan = plan_sweep(spec_from_document(doc))
    return {job.key for job in plan.graph.ordered()}


@pytest.fixture()
def service(tmp_path):
    """A fresh service (cold store) with an executing worker pool."""
    with JobService(
        f"dir:{tmp_path / 'cache'}",
        [ALICE, BOB],
        workers=2,
        runs_root=str(tmp_path / "runs"),
        poll_s=0.02,
    ) as svc:
        yield svc


@pytest.fixture(scope="module")
def shared_service(tmp_path_factory):
    """One service shared across the cheaper tests (warm-store reuse)."""
    root = tmp_path_factory.mktemp("service")
    with JobService(
        f"dir:{root / 'cache'}",
        [ALICE, BOB],
        workers=2,
        runs_root=str(root / "runs"),
        poll_s=0.02,
    ) as svc:
        yield svc


@pytest.fixture()
def frozen_service(tmp_path):
    """A service front door with no workers: nothing ever executes, so
    queue-state assertions (auth, cancel, fairness) are deterministic."""
    with JobService(
        f"dir:{tmp_path / 'cache'}", [ALICE, BOB], workers=0
    ) as svc:
        yield svc


# -- the headline acceptance test --------------------------------------------


def test_two_tenants_share_overlap_and_match_serial(service):
    doc_a = _spec_doc(engines=("qgdp", "tetris"))
    doc_b = _spec_doc(engines=("qgdp", "abacus"))
    keys_a, keys_b = _plan_keys(doc_a), _plan_keys(doc_b)
    assert keys_a & keys_b, "the two specs must actually overlap"
    alice = ServiceClient(service.url, ALICE.secret)
    bob = ServiceClient(service.url, BOB.secret)

    receipts = {}

    def submit(name, client, doc):
        receipts[name] = client.submit(doc)

    threads = [
        threading.Thread(target=submit, args=("a", alice, doc_a)),
        threading.Thread(target=submit, args=("b", bob, doc_b)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # Enqueue is atomic per submission, so whatever the interleaving,
    # the two receipts account for the overlap exactly once.
    assert receipts["a"]["num_jobs"] == len(keys_a)
    assert receipts["b"]["num_jobs"] == len(keys_b)
    assert (
        receipts["a"]["shared_jobs"] + receipts["b"]["shared_jobs"]
        == len(keys_a & keys_b)
    )

    run_a, run_b = receipts["a"]["run_id"], receipts["b"]["run_id"]
    status_a = alice.wait(run_a, poll_s=0.05, timeout_s=300)
    status_b = bob.wait(run_b, poll_s=0.05, timeout_s=300)
    assert status_a["state"] == "done"
    assert status_b["state"] == "done"
    assert status_a["tenant"] == "alice"
    assert status_b["tenant"] == "bob"

    # Zero duplicate work: each union job was computed in exactly one
    # tenant's manifest and shows up as cached in the other's.
    manifest_a = alice.manifest(run_a)
    manifest_b = bob.manifest(run_b)
    assert manifest_a["jobs"]["total"] == len(keys_a)
    assert manifest_b["jobs"]["total"] == len(keys_b)
    assert (
        manifest_a["jobs"]["computed"] + manifest_b["jobs"]["computed"]
        == len(keys_a | keys_b)
    )
    for manifest in (manifest_a, manifest_b):
        assert (
            manifest["jobs"]["computed"] + manifest["jobs"]["cached"]
            == manifest["jobs"]["total"]
        )
        assert manifest["service"]["scheduler"] == "fair-round-robin"
    assert manifest_a["service"]["tenant"] == "alice"

    # Bit-identical to a serial, uncached run_sweep of the same specs.
    serial_a = run_sweep(spec_from_document(doc_a))
    serial_b = run_sweep(spec_from_document(doc_b))
    rows_a = alice.results(run_a)["rows"]
    rows_b = bob.results(run_b)["rows"]
    assert json.dumps(rows_a) == json.dumps(serial_a.rows)
    assert json.dumps(rows_b) == json.dumps(serial_b.rows)

    # A third, identical submission is pure cache: nothing recomputed.
    rerun = alice.submit(doc_a)
    assert rerun["shared_jobs"] == len(keys_a)
    alice.wait(rerun["run_id"], poll_s=0.05, timeout_s=60)
    manifest_rerun = alice.manifest(rerun["run_id"])
    assert manifest_rerun["jobs"]["computed"] == 0
    assert manifest_rerun["jobs"]["cached"] == len(keys_a)
    assert (
        json.dumps(alice.results(rerun["run_id"])["rows"])
        == json.dumps(serial_a.rows)
    )


# -- streaming, persistence, submissions --------------------------------------


def test_incremental_results_cursor(shared_service):
    client = ServiceClient(shared_service.url, ALICE.secret)
    receipt = client.submit(_spec_doc())
    run_id = receipt["run_id"]
    assert receipt["num_cells"] == 1
    status = client.wait(run_id, poll_s=0.05, timeout_s=300)
    assert status["state"] == "done"
    assert status["cells_done"] == status["num_cells"] == 1

    first = client.results(run_id)
    assert first["complete"] is True
    assert first["next"] == len(first["rows"]) == 1
    assert first["rows"][0]["engine"] == "qgdp"
    # Resuming from the cursor yields nothing new, same cursor back.
    resumed = client.results(run_id, after=first["next"])
    assert resumed["rows"] == []
    assert resumed["next"] == first["next"]
    assert resumed["complete"] is True

    with pytest.raises(ServiceError) as info:
        client.results("run9999-deadbeef")
    assert "404" in str(info.value)


def test_flow_shorthand_submission(shared_service):
    client = ServiceClient(shared_service.url, BOB.secret)
    receipt = client.submit(
        {
            "topology": "grid",
            "benchmark": "bv-4",
            "engine": "qgdp",
            "num_seeds": 1,
            "config": _CFG,
        }
    )
    status = client.wait(receipt["run_id"], poll_s=0.05, timeout_s=300)
    assert status["state"] == "done"
    rows = client.results(receipt["run_id"])["rows"]
    assert len(rows) == 1
    assert rows[0]["topology"] == "grid"
    assert rows[0]["num_samples"] == 1


def test_completed_run_is_persisted_for_diff(shared_service):
    client = ServiceClient(shared_service.url, ALICE.secret)
    receipt = client.submit(_spec_doc())
    run_id = receipt["run_id"]
    client.wait(run_id, poll_s=0.05, timeout_s=300)
    run_dir = f"{shared_service.runs_root}/{run_id}"
    rows = read_jsonl(f"{run_dir}/results.jsonl")
    assert json.dumps(rows) == json.dumps(client.results(run_id)["rows"])
    with open(f"{run_dir}/manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["run_id"] == run_id
    assert manifest["jobs"]["total"] == receipt["num_jobs"]
    # The ledger rows repro diff consumes are present and plan-ordered.
    assert len(manifest["jobs"]["entries"]) == receipt["num_jobs"]
    assert {e["status"] for e in manifest["jobs"]["entries"]} <= {
        "computed",
        "cached",
    }


def test_submit_rejections(shared_service):
    client = ServiceClient(shared_service.url, ALICE.secret)
    for document in (
        {**_spec_doc(), "frobnicate": 1},  # unknown spec field
        {"topologies": ["grid"], "benchmarks": ["bv-4"]},  # no engines
        {"topology": "grid", "engine": "qgdp"},  # flow missing benchmark
        {"topology": "grid", "benchmark": "bv-4", "engine": "qgdp",
         "engines": ["qgdp"]},  # flow/spec field mix
    ):
        with pytest.raises(ServiceError) as info:
            client.submit(document)
        assert "HTTP 400" in str(info.value)


def test_spec_from_document_unit():
    doc = _spec_doc(engines=("qgdp", "tetris"))
    spec = spec_from_document(doc)
    assert spec.engines == ("qgdp", "tetris")
    assert spec.num_seeds == 2
    flow = spec_from_document(
        {"topology": "grid", "benchmark": "bv-4", "engine": "qgdp"}
    )
    assert flow.topologies == ("grid",)
    assert flow.spec_hash  # hashable (run-id material)
    with pytest.raises(ValueError):
        spec_from_document([1, 2, 3])
    with pytest.raises(ValueError):
        spec_from_document({"topologys": ["grid"]})


def test_spec_document_round_trip():
    """Every SweepSpec field survives both submission forms."""
    spec = SweepSpec(
        topologies=("grid", "falcon"),
        benchmarks=("bv-4", "qaoa-4"),
        engines=("qgdp", "tetris"),
        num_seeds=3,
        base_seed=5,
        detailed=True,
        config=_CFG,
        noise=noise_to_dict(NoiseParameters(t1_us=50.0)),
    )
    for spec_field in dataclasses.fields(SweepSpec):
        if spec_field.default is not dataclasses.MISSING:
            default = spec_field.default
        elif spec_field.default_factory is not dataclasses.MISSING:
            default = spec_field.default_factory()
        else:
            continue  # a required axis
        assert getattr(spec, spec_field.name) != default, spec_field.name
    document = spec.to_dict()
    assert spec_from_document(document) == spec

    axes = ("topologies", "benchmarks", "engines")
    flow = {"topology": "grid", "benchmark": "bv-4", "engine": "qgdp"}
    flow.update({k: v for k, v in document.items() if k not in axes})
    assert spec_from_document(flow) == dataclasses.replace(
        spec, topologies=("grid",), benchmarks=("bv-4",), engines=("qgdp",)
    )


# -- authentication ------------------------------------------------------------


def _raw(url, method="GET", token=None, body=None):
    request = urllib.request.Request(url, data=body, method=method)
    if token is not None:
        request.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


#: One sample request per route handler of the service: (method, path,
#: body).  A route added without a sample fails the auth test below.
_ROUTE_SAMPLES = {
    "_ping": ("GET", "/v1/ping", None),
    "_list": ("GET", "/v1/list", None),
    "_stats": ("GET", "/v1/stats", None),
    "_get_artifact": ("GET", "/v1/artifact/gp/abc123", None),
    "_head_artifact": ("HEAD", "/v1/artifact/gp/abc123", None),
    "_put_artifact": ("PUT", "/v1/artifact/gp/abc123", b"{}"),
    "_delete_artifact": ("DELETE", "/v1/artifact/gp/abc123", None),
    "_batch": ("POST", "/v1/artifacts/head", b'{"items": []}'),
    "_fleet_status": ("GET", "/v1/fleet/status", None),
    "_fleet": ("POST", "/v1/fleet/heartbeat", b'{"worker": "w"}'),
    "_submit": ("POST", "/v1/run", b"{}"),
    "_run_status": ("GET", "/v1/run/run0001-deadbeef", None),
    "_run_results": ("GET", "/v1/run/run0001-deadbeef/results?after=0", None),
    "_run_manifest": ("GET", "/v1/run/run0001-deadbeef/manifest", None),
    "_cancel": ("DELETE", "/v1/run/run0001-deadbeef", None),
}


def test_every_endpoint_rejects_bad_tokens(frozen_service):
    routes = _ServiceRequestHandler.routes
    assert set(_ROUTE_SAMPLES) == {handler for _m, _p, handler in routes}
    base = frozen_service.url
    bad_tokens = [None, "", "wrong-secret", ALICE.secret + "x", "Basic zzz"]
    for name, (method, path, body) in _ROUTE_SAMPLES.items():
        routed = next(
            handler
            for verb, pattern, handler in routes
            if verb == method and re.fullmatch(pattern, path)
        )
        assert routed == name, (method, path)
        for token in bad_tokens:
            status, payload = _raw(
                f"{base}{path}", method=method, token=token, body=body
            )
            assert status == 401, (method, path, token)
            # The rejection body is opaque: no path echo, no hint
            # whether the token was missing, wrong or expired.  HEAD
            # can't carry a body, but it still authenticates.
            expected = b"" if method == "HEAD" else b'{"error": "unauthorized"}'
            assert payload == expected, (method, path)
        # The route itself answers once the token is valid.
        status, payload = _raw(
            f"{base}{path}", method=method, token=ALICE.secret, body=body
        )
        assert status != 401 and b"unrecognized path" not in payload, name
    # Auth comes before routing: an unknown path is not echoed either.
    status, payload = _raw(f"{base}/v1/fleet/status", method="POST", body=b"{}")
    assert (status, payload) == (401, b'{"error": "unauthorized"}')


def test_auth_is_per_request_on_a_keepalive_connection(frozen_service):
    connection = http.client.HTTPConnection(
        frozen_service.host, frozen_service.port, timeout=10
    )
    try:
        connection.request(
            "GET", "/v1/ping",
            headers={"Authorization": f"Bearer {ALICE.secret}"},
        )
        response = connection.getresponse()
        response.read()
        assert response.status == 200
        # Same connection, same handler, no token: rejected.
        connection.request("GET", "/v1/ping")
        response = connection.getresponse()
        assert response.status == 401
        assert response.read() == b'{"error": "unauthorized"}'
    finally:
        connection.close()


def test_expired_token_stops_authenticating(tmp_path):
    class Clock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = Clock()
    with JobService(
        f"dir:{tmp_path / 'cache'}",
        [
            ServiceToken("ephemeral", tenant="alice", expires_s=100.0),
            ServiceToken("forever", tenant="bob"),
        ],
        workers=0,
        clock=clock,
    ) as svc:
        short = ServiceClient(svc.url, "ephemeral")
        assert short.ping()  # live before the expiry
        clock.now = 200.0
        with pytest.raises(ServiceError) as info:
            short.ping()
        assert "401" in str(info.value)
        assert ServiceClient(svc.url, "forever").ping()  # unaffected


def test_token_normalization_and_validation(tmp_path):
    store_url = f"dir:{tmp_path / 'cache'}"
    with pytest.raises(ValueError):
        JobService(store_url, [])  # never unauthenticated
    with pytest.raises(ValueError):
        JobService(store_url, ["t"], workers=-1)
    with pytest.raises(ValueError):
        JobService(ArtifactStore(), ["t"])  # memory-only store
    with JobService(store_url, ["s1", "s2"], workers=0) as svc:
        assert svc.authenticate("s1") == "tenant1"
        assert svc.authenticate("s2") == "tenant2"
        assert svc.authenticate("s3") is None


# -- cancellation --------------------------------------------------------------


def test_cancel_withdraws_only_exclusive_jobs(frozen_service):
    # A fidelity job's key lists the spec's engines, so a subset spec
    # drops a benchmark, not an engine.
    doc_a = _spec_doc(engines=("qgdp", "tetris"), benchmarks=("bv-4", "qaoa-4"))
    doc_b = _spec_doc(engines=("qgdp", "tetris"))
    keys_a, keys_b = _plan_keys(doc_a), _plan_keys(doc_b)
    assert keys_b < keys_a  # B is a strict subset: pure overlap
    exclusive = keys_a - keys_b

    alice = ServiceClient(frozen_service.url, ALICE.secret)
    bob = ServiceClient(frozen_service.url, BOB.secret)
    run_a = alice.submit(doc_a)["run_id"]
    run_b = bob.submit(doc_b)["run_id"]

    reply = alice.cancel(run_a)
    assert reply["cancelled"] == len(exclusive)
    assert reply["skipped"] == 0  # no workers: nothing was leased
    assert reply["shared"] == len(keys_b)

    status_a = alice.status(run_a)
    assert status_a["state"] == "cancelled"
    assert status_a["counts"]["cancelled"] == len(exclusive)
    # The cancelled run's stream is terminal but never completes.
    results_a = alice.results(run_a)
    assert results_a["state"] == "cancelled"
    assert results_a["complete"] is False

    # Bob's overlapping run is untouched: every job still queued.
    status_b = bob.status(run_b)
    assert status_b["state"] == "queued"
    assert status_b["counts"]["cancelled"] == 0

    # Idempotent; unknown runs 404.
    assert alice.cancel(run_a)["already_cancelled"] is True
    with pytest.raises(ServiceError) as info:
        alice.cancel("run9999-deadbeef")
    assert "404" in str(info.value)

    # Resubmitting the cancelled spec resurrects the withdrawn jobs.
    rerun = alice.submit(doc_a)
    assert rerun["resurrected_jobs"] == len(exclusive)
    assert rerun["shared_jobs"] == len(keys_b)
    status = alice.status(rerun["run_id"])
    assert status["state"] == "queued"
    assert status["counts"]["cancelled"] == 0


# -- the batched warm-cache resume criterion ----------------------------------


def test_warm_cache_resume_batches_round_trips(shared_service):
    client = ServiceClient(shared_service.url, ALICE.secret)
    doc = _spec_doc(engines=("qgdp", "tetris"))
    receipt = client.submit(doc)
    client.wait(receipt["run_id"], poll_s=0.05, timeout_s=300)

    plan = plan_sweep(spec_from_document(doc))
    pairs = [(job.kind, job.key) for job in plan.graph.ordered()]
    batch_size = 4
    remote = RemoteHTTPBackend(
        shared_service.url, batch_size=batch_size, token=ALICE.secret
    )
    store = ArtifactStore(backend=remote)
    warmed = store.prefetch(pairs)
    # Every artifact is on the service (the run just computed them) and
    # the whole warm-cache resume check cost ceil(N / batch) requests
    # instead of N — the round-trip reduction the issue pins.
    assert all(payload is not None for payload in warmed.values())
    assert len(pairs) > batch_size  # the reduction is non-trivial
    assert remote.requests == math.ceil(len(pairs) / batch_size)
    assert remote.batch_fallbacks == 0
    # After the prefetch, reads are pure memory hits: no new requests.
    before = remote.requests
    for kind, key in pairs:
        assert store.get(kind, key) is not None
    assert remote.requests == before


# -- the CLI front ends --------------------------------------------------------


def test_cli_submit_status_results_cancel(shared_service, tmp_path, capsys):
    from repro.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc()), encoding="utf-8")
    base = [
        "--service", shared_service.url, "--token", ALICE.secret,
    ]

    rc = main(
        ["submit", *base, "--spec", str(spec_path), "--wait",
         "--poll-s", "0.05"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    run_id = out.split()[1].rstrip(":")
    assert run_id.startswith("run")
    assert "done" in out

    rc = main(["status", run_id, *base])
    out = capsys.readouterr().out
    assert rc == 0
    status = json.loads(out)
    assert status["state"] == "done"
    assert status["computed"] + status["cached"] == status["counts"]["total"]

    rc = main(["results", run_id, *base])
    captured = capsys.readouterr()
    assert rc == 0
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert rows == ServiceClient(
        shared_service.url, ALICE.secret
    ).results(run_id)["rows"]
    assert "complete=True" in captured.err

    rc = main(["cancel", run_id, *base])
    assert rc == 0
    capsys.readouterr()

    # A bad token is an error exit, not a traceback.
    rc = main(
        ["status", run_id, "--service", shared_service.url,
         "--token", "wrong"]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "401" in captured.err
