"""Fair multiplexing of many tenant runs over one fleet coordinator.

The job service (:mod:`repro.orchestration.service`) accepts sweeps
from many tenants and executes them on one shared worker pool and one
shared artifact store.  :class:`FairScheduler` is the scheduling policy
that makes this multi-tenant: it subclasses
:class:`~repro.orchestration.coordinator.FleetCoordinator` — keeping
every lease/heartbeat/attempt-budget invariant the fleet tests pin —
and replaces only the *pick order* (the ``_select_ready`` hook) with a
round-robin across registered runs, so one tenant's thousand-job sweep
cannot starve another tenant's ten-job run.

Because jobs are content-addressed, two runs submitting overlapping
DAGs share the overlap automatically (``enqueue`` is idempotent); the
scheduler additionally keeps a *charge* ledger — the run whose
fair-share slot first scheduled a job — so per-run manifests can report
"computed" exactly once fleet-wide: for two overlapping runs A and B,
``computed_A + computed_B == len(keys(A) | keys(B))`` on a cold store,
which is the acceptance suite's zero-duplicate-work proof.

Cancellation (:meth:`FairScheduler.cancel_run`) withdraws only the
jobs no other live run needs: content addressing makes the shared-ness
check a set intersection, and dependents of an exclusive job are
provably exclusive too (any run needing the dependent plans its whole
dependency closure, so it would share the ancestor as well), so the
cascade in :meth:`~repro.orchestration.coordinator.FleetCoordinator
.withdraw` never touches another tenant's work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.orchestration.coordinator import (
    JOB_STATES,
    FleetCoordinator,
    _FleetJob,
    state_counts,
)

#: Per-run scheduling states (derived from the run's job states).
RUN_STATES = ("queued", "running", "done", "failed", "cancelled")


@dataclass
class _Run:
    """One registered run's bookkeeping inside the scheduler."""

    run_id: str
    tenant: str
    keys: List[str]  # the run's job keys, plan (= topo) order
    key_set: Set[str] = field(default_factory=set)
    created_s: float = 0.0
    cancelled: bool = False

    def __post_init__(self) -> None:
        if not self.key_set:
            self.key_set = set(self.keys)


class FairScheduler(FleetCoordinator):
    """Round-robin fair scheduling across registered runs.

    Every lease grant walks the live runs in rotating order and takes
    at most one ready job per run per round, so concurrent runs make
    proportional progress regardless of submission order or size.  The
    job a slot schedules is *charged* to that run (first charge wins —
    re-leases after an expiry keep the original attribution), which is
    what lets the service report shared jobs as ``computed`` in exactly
    one tenant's manifest and ``cached`` in every other.

    Ready jobs that belong to no registered run (a DAG enqueued through
    the raw fleet protocol next to the service's runs) are granted
    after the fair rounds, in insertion order, so mixing both protocols
    on one coordinator starves neither.
    """

    def __init__(
        self,
        lease_ttl_s: float = 60.0,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(
            lease_ttl_s=lease_ttl_s, max_attempts=max_attempts, clock=clock
        )
        self._runs: Dict[str, _Run] = {}  # guarded-by: _lock
        self._rr_offset = 0  # guarded-by: _lock — round-robin start slot
        self._charged: Dict[str, str] = {}  # guarded-by: _lock — key -> run

    # -- run registry ------------------------------------------------------
    def register_run(
        self, run_id: str, tenant: str, rows: List[dict]
    ) -> dict:
        """Register a run and enqueue its serialized DAG.

        ``rows`` are :func:`~repro.orchestration.coordinator
        .serialize_graph` rows in topological order.  Jobs another run
        already enqueued are shared, not duplicated (the reply's
        ``known`` counter says how many); jobs a cancelled run withdrew
        are resurrected.  Returns the enqueue summary.
        """
        with self._lock:
            if run_id in self._runs:
                raise ValueError(f"run id {run_id!r} already registered")
            self._runs[run_id] = _Run(
                run_id=run_id,
                tenant=tenant,
                keys=[row["key"] for row in rows],
                created_s=self._clock(),
            )
        # enqueue takes the (non-reentrant) coordinator lock itself; in
        # the gap the run's keys are simply not ready yet, which every
        # caller already tolerates (the fleet protocol is pull-based).
        return self.enqueue(rows)

    # -- the scheduling-policy hook ----------------------------------------
    def _select_ready(self, max_jobs: int) -> List[_FleetJob]:  # holds: _lock
        live = [
            run_id
            for run_id, run in self._runs.items()
            if not run.cancelled
        ]
        granted: List[_FleetJob] = []
        taken: Set[str] = set()
        if live:
            # One ready job per run per round, rotating the start slot
            # between calls so no run is permanently "first".
            cursors = {run_id: 0 for run_id in live}
            offset = self._rr_offset % len(live)
            self._rr_offset = (self._rr_offset + 1) % len(live)
            progressed = True
            while progressed and len(granted) < max_jobs:
                progressed = False
                for slot in range(len(live)):
                    if len(granted) >= max_jobs:
                        break
                    run_id = live[(offset + slot) % len(live)]
                    run = self._runs[run_id]
                    cursor = cursors[run_id]
                    while cursor < len(run.keys):
                        key = run.keys[cursor]
                        cursor += 1
                        job = self._jobs[key]
                        if job.state == "ready" and key not in taken:
                            granted.append(job)
                            taken.add(key)
                            self._charged.setdefault(key, run_id)
                            progressed = True
                            break
                    cursors[run_id] = cursor
        while len(granted) < max_jobs:
            # Orphan jobs (raw fleet-protocol DAGs) after the fair pass.
            # The base pops every job it returns, so it is asked for the
            # free slots only; a job it returns that the fair pass took
            # is being leased already.
            picked = super()._select_ready(max_jobs - len(granted))
            if not picked:
                break
            granted.extend(job for job in picked if job.key not in taken)
        return granted

    # -- per-run views -----------------------------------------------------
    def run_snapshot(self, run_id: str) -> dict:
        """One consistent view of a run's scheduling state.

        Everything the service layer needs to answer status, results
        and manifest requests: per-key states and completion results,
        the keys charged to this run, the run-filtered completion and
        failure ledgers, and the derived per-run counts / run state.
        """
        with self._lock:
            self._expire(self._clock())
            run = self._runs.get(run_id)
            if run is None:
                raise ValueError(f"unknown run id {run_id!r}")
            states = {key: self._jobs[key].state for key in run.keys}
            results = {key: self._jobs[key].result for key in run.keys}
            charged = [
                key
                for key in run.keys
                if self._charged.get(key) == run_id
            ]
            entries = [
                dict(entry)
                for entry in self.entries
                if entry["key"] in run.key_set
            ]
            failures = [
                dict(row)
                for row in self.failures
                if row["key"] in run.key_set
            ]
            per_state = dict.fromkeys(JOB_STATES, 0)
            for job_state in states.values():
                per_state[job_state] += 1
            counts = state_counts(per_state)
            if run.cancelled:
                state = "cancelled"
            elif counts["outstanding"] == 0:
                state = "failed" if counts["failed"] else "done"
            elif counts["leased"] or counts["done"]:
                state = "running"
            else:
                state = "queued"
            return {
                "run_id": run_id,
                "tenant": run.tenant,
                "state": state,
                "cancelled": run.cancelled,
                "counts": counts,
                "states": states,
                "results": results,
                "charged": charged,
                "entries": entries,
                "failures": failures,
                "lease_ttl_s": self.lease_ttl_s,
                "max_attempts": self.max_attempts,
            }

    def cancel_run(self, run_id: str) -> dict:
        """Cancel a run: withdraw every queued job no other run needs.

        Jobs shared with another live run keep running (that tenant
        still wants them); jobs already leased finish (cancellation
        never interrupts a worker — their artifacts land in the shared
        store where they benefit everyone).  Idempotent.
        """
        with self._lock:
            run = self._runs.get(run_id)
            if run is None:
                raise ValueError(f"unknown run id {run_id!r}")
            if run.cancelled:
                return {"run_id": run_id, "cancelled": 0, "skipped": 0,
                        "already_cancelled": True}
            run.cancelled = True
            shared: Set[str] = set()
            for other in self._runs.values():
                if other.run_id != run_id and not other.cancelled:
                    shared |= other.key_set & run.key_set
            exclusive = [key for key in run.keys if key not in shared]
        # withdraw takes the coordinator lock itself (non-reentrant);
        # a run registering in the gap resurrects any withdrawn
        # overlap via enqueue, so the two-step stays safe.
        reply = self.withdraw(exclusive)
        return {
            "run_id": run_id,
            "cancelled": reply["cancelled"],
            "skipped": reply["skipped"],
            "shared": len(run.keys) - len(exclusive),
            "already_cancelled": False,
        }
