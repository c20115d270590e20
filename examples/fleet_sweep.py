"""Fault-tolerant fleet sweep: two workers, one killed mid-run.

Demonstrates the lease-based work-stealing layer from docs/fleet.md
inside a single script: a coordinator-enabled cache server holds the
sweep's job DAG, two real ``repro worker`` child processes pull leased
job batches over HTTP, and one of them is SIGKILLed mid-sweep — no
drain, no goodbye.  Its leases expire, the surviving worker steals the
orphaned jobs, and the merged manifest still accounts for every job
(the revoked leases show up in the failure ledger, not as lost work).

Run with the package importable, from any directory::

    PYTHONPATH=src python examples/fleet_sweep.py

Equivalent CLI session (with real machines, point --coordinator at the
coordinator host instead of localhost)::

    repro serve-cache --store sqlite:fleet.db --fleet --port 8765 &
    repro worker --coordinator http://localhost:8765 &   # per machine
    repro sweep --fleet http://localhost:8765 --out runs/fleet
    repro fleet status --coordinator http://localhost:8765
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
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
    serialize_graph,
)


#: The directory this process imported ``repro`` from, so the workers
#: import the same code whatever the working directory is.
PACKAGE_ROOT = str(Path(repro.__file__).resolve().parent.parent)


def _spawn_worker(url: str, name: str) -> subprocess.Popen:
    """A real ``repro worker`` child process pulling from ``url``."""
    path = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--coordinator", url,
            "--worker-id", name,
            "--batch-size", "2",
            "--poll-s", "0.1",
            "--quiet",
        ],
        env={**os.environ, "PYTHONPATH": path},
    )


def _check_alive(workers: dict) -> None:
    """Raise if a worker failed; a worker exits 0 only once the sweep is done."""
    for name, proc in workers.items():
        code = proc.poll()
        if code not in (None, 0):
            raise RuntimeError(
                f"worker {name!r} exited with code {code} before the sweep "
                "finished"
            )


def main() -> None:
    spec = SweepSpec(
        topologies=("grid",),
        benchmarks=("bv-4", "qaoa-4"),
        engines=("qgdp", "tetris"),
        num_seeds=2,
        config=config_to_dict(QGDPConfig(gp_iterations=60)),
    )
    plan = plan_sweep(spec)
    print(f"sweep plan: {len(plan.graph)} jobs")

    with tempfile.TemporaryDirectory() as scratch:
        backend = SqliteBackend(f"{scratch}/fleet.db")
        coordinator = FleetCoordinator(lease_ttl_s=3.0, max_attempts=3)
        with CacheServer(backend, coordinator=coordinator) as server:
            print(f"coordinator: {server.url} (lease TTL 3 s)")
            client = FleetClient(server.url)
            client.enqueue(serialize_graph(plan.graph))

            doomed = _spawn_worker(server.url, "doomed")
            survivor = _spawn_worker(server.url, "survivor")
            try:
                # Let the doomed worker get a few completions in, then
                # SIGKILL it while it still holds leases: no drain, no
                # release — the coordinator only learns from the silence.
                while client.status()["counts"]["done"] < 2:
                    _check_alive({"doomed": doomed, "survivor": survivor})
                    time.sleep(0.1)
                doomed.send_signal(signal.SIGKILL)
                doomed.wait()
                print("killed worker 'doomed' mid-sweep (leases orphaned)")

                result = run_fleet_sweep(
                    spec,
                    server.url,
                    poll_s=0.2,
                    progress=lambda _status: _check_alive(
                        {"survivor": survivor}
                    ),
                )
            finally:
                for proc in (doomed, survivor):
                    if proc.poll() is None:
                        proc.kill()
            survivor.wait()

            stats = result.stats
            print(
                f"fleet finished: {stats.computed} computed, "
                f"{stats.cached} cached -> {len(result.cells)} cells"
            )
            expired = [
                f for f in result.manifest["jobs"]["failures"]
                if f["error_type"] == "LeaseExpired"
            ]
            print(
                f"failure ledger: {len(expired)} expired lease(s) from "
                f"{sorted({f['worker'] for f in expired})}"
            )
            print(f"workers on record: {result.manifest['fleet']['workers']}")
            assert len(stats.entries) == len(plan.graph), "no job may be lost"

        backend.close()


if __name__ == "__main__":
    main()
