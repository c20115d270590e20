"""Chaos acceptance: a fleet survives a SIGKILLed worker + a flaky store.

The choreography (see ISSUE acceptance criteria):

1. A coordinator-backed cache server holds an 11-job sweep DAG.
2. Worker ``killer`` leases all three ready roots in one batch, completes
   exactly one, then SIGKILLs itself while still holding the other two
   leases — no drain, no release, like a machine losing power.
3. Worker ``survivor`` — whose every store call goes through a seeded
   30%-flaky backend — picks up the orphaned jobs after lease expiry and
   finishes the sweep.
4. The merged fleet manifest must show zero lost jobs, the expired
   leases in its failure ledger, and a ``results.jsonl`` payload
   bit-identical to a serial uncached run.

Both workers are real child processes (``fault_injection`` is the
``__main__``), so the SIGKILL is a genuine process death: the
coordinator only learns about it from the silence.
"""

import signal

import pytest
from fault_injection import spawn_chaos_worker

from repro.core.config import QGDPConfig
from repro.orchestration import (
    CacheServer,
    FleetClient,
    FleetCoordinator,
    SqliteBackend,
    SweepSpec,
    config_to_dict,
    plan_sweep,
    run_fleet_sweep,
    run_sweep,
    serialize_graph,
)

_CFG = config_to_dict(QGDPConfig(gp_iterations=40))


def _spec():
    return SweepSpec(
        topologies=("grid",),
        benchmarks=("bv-4", "qaoa-4"),
        engines=("qgdp", "tetris"),
        num_seeds=2,
        config=_CFG,
    )


@pytest.mark.chaos
def test_fleet_survives_sigkill_and_flaky_store(tmp_path):
    spec = _spec()
    plan = plan_sweep(spec)

    coordinator = FleetCoordinator(lease_ttl_s=2.0, max_attempts=3)
    backend = SqliteBackend(str(tmp_path / "store.db"))
    server = CacheServer(backend, coordinator=coordinator).start()
    killer = survivor = None
    try:
        FleetClient(server.url).enqueue(serialize_graph(plan.graph))

        # Phase 1: the killer leases every ready root (batch of 3),
        # completes one, and SIGKILLs itself holding the other two.
        # Waiting for the corpse keeps the choreography deterministic.
        killer = spawn_chaos_worker(
            server.url, "killer", batch_size=3, kill_after=1,
            failure_rate=0.3, seed=11,
        )
        killer.wait(timeout=300)
        assert killer.returncode == -signal.SIGKILL

        # Phase 2: a flaky-but-persistent survivor finishes the sweep
        # (the orphaned leases expire after 2 s and are re-granted).
        survivor = spawn_chaos_worker(
            server.url, "survivor", batch_size=2, kill_after=-1,
            failure_rate=0.3, seed=23,
        )
        result = run_fleet_sweep(spec, server.url, poll_s=0.1)
        survivor.wait(timeout=300)
        assert survivor.returncode == 0
    finally:
        for proc in (killer, survivor):
            if proc is not None and proc.poll() is None:
                proc.kill()
        server.stop()
        backend.close()

    # Zero lost jobs: every planned job shows up done, in plan order.
    plan_keys = [j.key for j in plan.graph.ordered()]
    assert [e["key"] for e in result.stats.entries] == plan_keys
    assert all(
        e["status"] in ("computed", "cached") for e in result.stats.entries
    )

    # The killer's orphaned leases are on the record in the merged
    # manifest's failure ledger — visible evidence chaos happened.
    failures = result.manifest["jobs"]["failures"]
    expired = [f for f in failures if f["error_type"] == "LeaseExpired"]
    assert {f["worker"] for f in expired} == {"killer"}
    assert len(expired) == 2
    assert set(result.manifest["fleet"]["workers"]) >= {"killer", "survivor"}

    # Bit-identical to a serial, uncached, fault-free run.
    serial = run_sweep(spec, workers=0)
    assert result.rows == serial.rows
