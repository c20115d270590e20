"""Golden flow fingerprints: the full qGDP flow, pinned per topology.

Each committed baseline under ``baselines/`` records the SHA-256 of the
flow's final positions plus the headline metrics for one paper topology.
These tests assert an exact match, so *any* change to placement
arithmetic — LP presolve, arc reduction, cluster extraction, crossing
counting — either reproduces the historical flow bit-for-bit or fails
here.  Deliberate changes are re-baselined with::

    PYTHONPATH=src python tools/write_baselines.py

which prints the field-level diff to commit alongside the change.

The orchestrated gp → lg → dp job chain a sweep runs must land on the
same final positions as the in-process flow.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import QGDPConfig
from repro.core.result import decode_snapshot
from repro.evaluation.fingerprint import (
    fingerprint_diff,
    flow_fingerprint,
    positions_digest,
)
from repro.orchestration.executor import run_jobs
from repro.orchestration.jobs import JobGraph
from repro.orchestration.stages import config_to_dict
from repro.orchestration.store import ArtifactStore
from repro.orchestration.sweep import add_layout_jobs
from repro.topologies.registry import PAPER_TOPOLOGIES

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"


def test_every_paper_topology_has_a_committed_baseline():
    missing = [
        name
        for name in PAPER_TOPOLOGIES
        if not (BASELINE_DIR / f"{name}.json").exists()
    ]
    assert not missing, (
        f"no golden baseline for {missing}; run tools/write_baselines.py"
    )


def load_baseline(topology):
    path = BASELINE_DIR / f"{topology}.json"
    if not path.exists():
        pytest.skip(f"baseline for {topology} not committed yet")
    return json.loads(path.read_text())


@pytest.mark.parametrize("topology", PAPER_TOPOLOGIES)
def test_flow_fingerprint_matches_baseline(topology):
    baseline = load_baseline(topology)
    fresh = flow_fingerprint(topology)
    diff = fingerprint_diff(baseline, fresh)
    assert not diff, (
        "golden fingerprint drifted (deliberate? rerun "
        "tools/write_baselines.py and commit the diff):\n  "
        + "\n  ".join(diff)
    )


@pytest.mark.parametrize("topology", PAPER_TOPOLOGIES)
def test_orchestrated_dp_chain_matches_baseline(topology):
    baseline = load_baseline(topology)
    graph = JobGraph()
    chain = add_layout_jobs(
        graph, topology, ("qgdp",), config_to_dict(QGDPConfig()), detailed=True
    )["qgdp"]
    assert [job.kind for job in chain] == ["lg", "dp"]
    results, _stats = run_jobs(graph, ArtifactStore())
    positions = decode_snapshot(results[chain[-1].key]["positions"])
    assert positions_digest(positions) == baseline["positions_sha256"]
