"""Golden flow fingerprints: compact, exact digests of a full qGDP run.

A fingerprint captures one topology's end-to-end flow outcome as a
SHA-256 over the rounded final positions plus the headline layout
metrics (unified/total clusters, crossings, hotspot percentage).  The
committed baselines under ``tests/golden/baselines/`` pin these values
exactly, so any change to the placement arithmetic — a new LP presolve,
a different arc set, a reordered reduction — either reproduces the flow
bit-for-bit or shows up as a failing golden test.

Deliberate changes are re-baselined with ``tools/write_baselines.py``,
which prints the field-level diff it is committing; silent drift is the
thing this module exists to prevent.  Positions are rounded to
:data:`POSITION_DECIMALS` before hashing so the digest is stable across
platforms while still resolving far below the site pitch.

:func:`job_payload_pins` pins each job kind's payloads next to its
``KIND_VERSIONS`` entry, so a payload change cannot keep its job keys.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.config import QGDPConfig
from repro.core.pipeline import run_flow
from repro.orchestration.diff import comparable
from repro.orchestration.executor import run_jobs
from repro.orchestration.jobs import KIND_VERSIONS, canonical_json
from repro.orchestration.stages import config_to_dict
from repro.orchestration.store import ArtifactStore
from repro.orchestration.sweep import SweepSpec, plan_sweep

#: Decimal places kept when hashing positions — 1e-6 layout units is far
#: below the site pitch, so any real movement changes the digest.
POSITION_DECIMALS = 6

#: Metric fields copied (rounded where float) into the fingerprint.
_METRIC_FIELDS = ("unified", "total_resonators", "clusters", "crossings")


def positions_digest(positions: dict) -> str:
    """SHA-256 hex digest of a position snapshot (order-independent).

    ``positions`` is a netlist snapshot: node id → ``(x, y)``.  Entries
    are serialized sorted by their stringified node id with coordinates
    rounded to :data:`POSITION_DECIMALS`.
    """
    rows = sorted(
        (
            str(node_id),
            round(float(x), POSITION_DECIMALS),
            round(float(y), POSITION_DECIMALS),
        )
        for node_id, (x, y) in positions.items()
    )
    payload = json.dumps(rows, separators=(",", ":")).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def flow_fingerprint(
    topology_name: str, engine: str = "qgdp", detailed: bool = True
) -> dict:
    """Run the full flow on one topology and fingerprint the outcome."""
    _, result = run_flow(topology_name, engine=engine, detailed=detailed)
    final = result.final
    fingerprint = {
        "topology": topology_name,
        "engine": engine,
        "stage": final.stage,
        "positions_sha256": positions_digest(final.positions),
    }
    for fieldname in _METRIC_FIELDS:
        fingerprint[fieldname] = final.metrics[fieldname]
    fingerprint["ph_percent"] = round(
        float(final.metrics["ph_percent"]), POSITION_DECIMALS
    )
    return fingerprint


def fingerprint_diff(old: dict, new: dict) -> list:
    """Human-readable field diffs between two fingerprints."""
    lines = []
    for key in sorted(set(old) | set(new)):
        before = old.get(key, "<absent>")
        after = new.get(key, "<absent>")
        if before != after:
            lines.append(f"{key}: {before} -> {after}")
    return lines


def job_payload_pins() -> dict:
    """``{kind: {"version", "sha256"}}`` over a small sweep with every kind.

    A kind's digest is the SHA-256 of the canonical JSON of its payloads
    in graph order, without their wall-clock fields.  On these layouts
    bv-9 engages every Eq. 7 factor, so each one reaches a digest.
    """
    spec = SweepSpec(
        ("aspen11",),
        ("bv-9",),
        ("qgdp", "tetris"),
        num_seeds=2,
        detailed=True,
        config=config_to_dict(QGDPConfig(gp_iterations=60)),
    )
    graph = plan_sweep(spec).graph
    results, _stats = run_jobs(graph, ArtifactStore())
    payloads = {kind: [] for kind in KIND_VERSIONS}
    for job in graph.ordered():
        payloads[job.kind].append(comparable(results[job.key]))
    pins = {}
    for kind, rows in payloads.items():
        text = canonical_json(rows).encode("utf-8")
        sha256 = hashlib.sha256(text).hexdigest()
        pins[kind] = {"version": KIND_VERSIONS[kind], "sha256": sha256}
    return pins
