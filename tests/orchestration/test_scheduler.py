"""FairScheduler unit tests: round-robin fairness, charge attribution,
cancellation cascades and resurrection — all on a fake clock, no HTTP.

The scheduler is the service's policy layer over the fleet coordinator;
these tests pin the invariants the acceptance suite observes end to end
(computed counters summing to the union, cancel sparing shared work) at
the level where they are deterministic.
"""

import pytest

from repro.orchestration import FairScheduler


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _rows(*keys, deps=None):
    """Serialized fan (default) or chained job rows over ``keys``."""
    rows = []
    previous = None
    for key in keys:
        chained = deps == "chain" and previous is not None
        rows.append(
            {
                "kind": "gp",
                "key": key,
                "params": {},
                "deps": [previous] if chained else [],
                "dep_kinds": ["gp"] if chained else [],
            }
        )
        previous = key
    return rows


def _scheduler(ttl=10.0, attempts=3):
    clock = FakeClock()
    return (
        FairScheduler(lease_ttl_s=ttl, max_attempts=attempts, clock=clock),
        clock,
    )


def _tenant_of(key):
    return key[0]  # keys are named "<tenant-letter><index>"


def test_round_robin_interleaves_runs():
    scheduler, _ = _scheduler()
    scheduler.register_run("run-a", "alice", _rows("a0", "a1", "a2", "a3"))
    scheduler.register_run("run-b", "bob", _rows("b0", "b1", "b2", "b3"))
    granted = scheduler.lease("w", max_jobs=4)["jobs"]
    tenants = [_tenant_of(job["key"]) for job in granted]
    # One job per run per round: strict a/b alternation, 2 jobs each.
    assert tenants in (["a", "b", "a", "b"], ["b", "a", "b", "a"])


def test_large_run_cannot_starve_small():
    scheduler, _ = _scheduler()
    scheduler.register_run(
        "big", "alice", _rows(*[f"a{i}" for i in range(10)])
    )
    scheduler.register_run("small", "bob", _rows("b0", "b1"))
    granted = scheduler.lease("w", max_jobs=4)["jobs"]
    tenants = [_tenant_of(job["key"]) for job in granted]
    # The later, smaller run gets a slot in every round it has work.
    assert tenants.count("b") == 2
    # Once the small run drains, the big run takes the whole batch.
    granted = scheduler.lease("w", max_jobs=4)["jobs"]
    assert [_tenant_of(job["key"]) for job in granted] == ["a"] * 4


def test_rotating_offset_shares_first_slot():
    scheduler, _ = _scheduler()
    scheduler.register_run("run-a", "alice", _rows("a0", "a1"))
    scheduler.register_run("run-b", "bob", _rows("b0", "b1"))
    first = _tenant_of(scheduler.lease("w", max_jobs=1)["jobs"][0]["key"])
    second = _tenant_of(scheduler.lease("w", max_jobs=1)["jobs"][0]["key"])
    assert {first, second} == {"a", "b"}  # the start slot rotates


def test_shared_job_charged_to_exactly_one_run():
    scheduler, clock = _scheduler()
    shared = _rows("s0")
    scheduler.register_run("run-a", "alice", shared + _rows("a1"))
    scheduler.register_run("run-b", "bob", shared + _rows("b1"))
    client = scheduler
    while client.lease("w", max_jobs=8)["jobs"]:
        pass
    charged_a = scheduler.run_snapshot("run-a")["charged"]
    charged_b = scheduler.run_snapshot("run-b")["charged"]
    assert ("s0" in charged_a) ^ ("s0" in charged_b)
    owner = charged_a if "s0" in charged_a else charged_b
    # The charge survives lease expiry and re-lease: attribution is
    # first-scheduler-wins, not last-toucher-wins.
    clock.advance(1000.0)
    release = client.lease("w2", max_jobs=8)["jobs"]
    assert {job["key"] for job in release} == {"s0", "a1", "b1"}
    assert ("s0" in scheduler.run_snapshot("run-a")["charged"]) == (
        owner is charged_a
    )


def test_computed_counters_sum_to_union():
    scheduler, _ = _scheduler()
    shared = _rows("s0", "s1")
    scheduler.register_run("run-a", "alice", shared + _rows("a2"))
    scheduler.register_run("run-b", "bob", shared + _rows("b2"))
    client = scheduler
    while True:
        jobs = client.lease("w", max_jobs=4)["jobs"]
        if not jobs:
            break
        for job in jobs:
            client.complete("w", job["key"], "computed")
    computed = 0
    for run_id in ("run-a", "run-b"):
        snapshot = scheduler.run_snapshot(run_id)
        charged = set(snapshot["charged"])
        computed += sum(
            1
            for key, result in snapshot["results"].items()
            if key in charged and result == "computed"
        )
        assert snapshot["state"] == "done"
    assert computed == 4  # |{s0, s1, a2, b2}| — the union, exactly once


def test_cancel_spares_shared_and_leased_jobs():
    scheduler, _ = _scheduler()
    scheduler.register_run(
        "run-a", "alice", _rows("s0") + _rows("a1", "a2", deps="chain")
    )
    scheduler.register_run("run-b", "bob", _rows("s0"))
    client = scheduler
    # Lease until alice's exclusive root a1 is in flight.
    leased = set()
    while "a1" not in leased:
        jobs = client.lease("w", max_jobs=1)["jobs"]
        assert jobs, "a1 never became ready"
        leased |= {job["key"] for job in jobs}

    reply = scheduler.cancel_run("run-a")
    # a2 (exclusive, still pending) is withdrawn; a1 (leased) finishes;
    # s0 (shared with bob's live run) is spared.
    assert reply["cancelled"] == 1
    assert reply["skipped"] == 1
    assert reply["shared"] == 1
    snapshot = scheduler.run_snapshot("run-a")
    assert snapshot["state"] == "cancelled"
    assert snapshot["states"]["a2"] == "cancelled"
    assert snapshot["states"]["a1"] == "leased"
    assert snapshot["states"]["s0"] in ("ready", "leased")

    # The in-flight job still completes normally into the shared store.
    assert client.complete("w", "a1", "computed")["result"] == "computed"
    # Bob's run drains to done: cancellation never touched his job.
    if scheduler.run_snapshot("run-b")["states"]["s0"] != "leased":
        client.lease("w", max_jobs=1)
    client.complete("w", "s0", "computed")
    assert scheduler.run_snapshot("run-b")["state"] == "done"


def test_cancel_cascades_to_exclusive_dependents():
    scheduler, _ = _scheduler()
    scheduler.register_run(
        "run-a", "alice", _rows("a0", "a1", "a2", deps="chain")
    )
    reply = scheduler.cancel_run("run-a")
    assert reply["cancelled"] == 3  # ready root + pending dependents
    assert scheduler.status()["counts"]["outstanding"] == 0


def test_resurrection_after_cancel():
    scheduler, _ = _scheduler()
    rows = _rows("x0", "x1", deps="chain")
    scheduler.register_run("run-a", "alice", rows)
    scheduler.cancel_run("run-a")
    reply = scheduler.register_run("run-c", "cara", rows)
    assert reply["resurrected"] == 2
    assert reply["known"] == 0
    client = scheduler
    for key in ("x0", "x1"):
        jobs = client.lease("w", max_jobs=1)["jobs"]
        assert [job["key"] for job in jobs] == [key]
        assert jobs[0]["attempt"] == 1  # fresh attempt budget
        client.complete("w", key, "computed")
    assert scheduler.run_snapshot("run-c")["state"] == "done"
    # The cancelled run stays cancelled even though its keys finished.
    assert scheduler.run_snapshot("run-a")["state"] == "cancelled"


def test_cancel_is_idempotent_and_unknown_runs_raise():
    scheduler, _ = _scheduler()
    scheduler.register_run("run-a", "alice", _rows("a0"))
    assert scheduler.cancel_run("run-a")["already_cancelled"] is False
    assert scheduler.cancel_run("run-a")["already_cancelled"] is True
    with pytest.raises(ValueError):
        scheduler.cancel_run("run-z")
    with pytest.raises(ValueError):
        scheduler.run_snapshot("run-z")


def test_duplicate_run_id_rejected():
    scheduler, _ = _scheduler()
    scheduler.register_run("run-a", "alice", _rows("a0"))
    with pytest.raises(ValueError):
        scheduler.register_run("run-a", "alice", _rows("a1"))


def test_orphan_fleet_jobs_schedule_after_fair_rounds():
    scheduler, _ = _scheduler()
    scheduler.enqueue(_rows("o0", "o1"))  # raw fleet protocol, no run
    scheduler.register_run("run-a", "alice", _rows("a0"))
    granted = scheduler.lease("w", max_jobs=3)["jobs"]
    keys = [job["key"] for job in granted]
    # The registered run's slot comes first; orphans fill the batch.
    assert keys[0] == "a0"
    assert set(keys) == {"a0", "o0", "o1"}


@pytest.mark.parametrize("orphans_first", [True, False])
def test_orphan_pass_leases_every_job_exactly_once(orphans_first):
    """The base pick pops what it returns, so the orphan pass may take
    only the free slots: popping more would strand a ready orphan."""
    scheduler, _ = _scheduler()
    if orphans_first:
        scheduler.enqueue(_rows("o0", "o1", "o2"))
    scheduler.register_run("run-a", "alice", _rows("a0"))
    if not orphans_first:
        scheduler.enqueue(_rows("o0", "o1", "o2"))
    batches = []
    while True:
        jobs = scheduler.lease("w", max_jobs=2)["jobs"]
        if not jobs:
            break
        batches.append([job["key"] for job in jobs])
        for job in jobs:
            scheduler.complete("w", job["key"], "computed")
    leased = [key for batch in batches for key in batch]
    assert sorted(leased) == ["a0", "o0", "o1", "o2"]
    assert [len(batch) for batch in batches] == [2, 2]
    assert scheduler.status()["outstanding"] == 0
