#!/usr/bin/env python
"""Regenerate the golden baselines under tests/golden/baselines/.

The golden suite (``tests/golden/test_golden_fingerprints.py``) pins the
full qGDP flow — final positions hash, cluster counts, crossings,
hotspot percentage — per paper topology.  When a PR *deliberately*
changes placement arithmetic (a new LP presolve, a different arc set),
run this tool, review the printed diff, and commit the regenerated JSON
files alongside the change.  A golden test failing without a baseline
diff in the same PR means unintended drift.

The tool also owns ``job_payloads.json``, the per-kind payload pins of
``tests/golden/test_job_payloads.py``: ``{kind: {"version", "sha256"}}``
from :func:`repro.evaluation.fingerprint.job_payload_pins`.  It refuses
to record a changed digest whose kind version is unchanged: bump that
kind in ``KIND_VERSIONS`` (``repro/orchestration/jobs.py``) first, so
caches filled by the old code recompute it.  After changing the pinned
sweep itself, delete ``job_payloads.json`` and rerun.

Usage::

    PYTHONPATH=src python tools/write_baselines.py            # all topologies + pins
    PYTHONPATH=src python tools/write_baselines.py --check    # diff only, rc 1 on drift
    PYTHONPATH=src python tools/write_baselines.py grid eagle # a subset + pins

Exit code 0 when baselines are (now) current, 1 in ``--check`` mode when
they differ from a fresh run, or when a payload pin would change without
a version bump.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.evaluation.fingerprint import (
    fingerprint_diff,
    flow_fingerprint,
    job_payload_pins,
)
from repro.topologies.registry import PAPER_TOPOLOGIES

BASELINE_DIR = (
    Path(__file__).resolve().parent.parent / "tests" / "golden" / "baselines"
)
PINS_PATH = BASELINE_DIR / "job_payloads.json"


def baseline_path(topology: str) -> Path:
    return BASELINE_DIR / f"{topology}.json"


def load_baseline(topology: str) -> dict:
    path = baseline_path(topology)
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def update_pins(check: bool) -> int:
    """Diff the job payload pins; write them unless ``check``.

    Returns the number of drifted pins, or -1 when a kind's digest
    changed under an unchanged version (nothing is written then).
    """
    old = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    fresh = job_payload_pins()
    diff = fingerprint_diff(old, fresh)
    if not diff:
        print("job payloads: unchanged")
        return 0
    print("job payloads:")
    for line in diff:
        print(f"  {line}")
    unbumped = [
        kind
        for kind, pin in fresh.items()
        if kind in old
        and old[kind]["version"] == pin["version"]
        and old[kind]["sha256"] != pin["sha256"]
    ]
    if unbumped:
        print(
            f"refusing to pin {', '.join(unbumped)}: the payloads changed "
            "under an unchanged version; bump KIND_VERSIONS in "
            "src/repro/orchestration/jobs.py and rerun"
        )
        return -1
    if not check:
        PINS_PATH.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    return len(diff)


def main(argv: list = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "topologies",
        nargs="*",
        default=list(PAPER_TOPOLOGIES),
        help="topologies to (re)fingerprint; default: all paper topologies",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="only diff against the committed baselines, write nothing",
    )
    args = parser.parse_args(argv)

    BASELINE_DIR.mkdir(parents=True, exist_ok=True)
    drifted = 0
    for topology in args.topologies:
        fresh = flow_fingerprint(topology)
        diff = fingerprint_diff(load_baseline(topology), fresh)
        if diff:
            drifted += 1
            print(f"{topology}:")
            for line in diff:
                print(f"  {line}")
        else:
            print(f"{topology}: unchanged")
        if not args.check and diff:
            baseline_path(topology).write_text(
                json.dumps(fresh, indent=2, sort_keys=True) + "\n"
            )
    pins = update_pins(args.check)
    if pins < 0:
        return 1
    if args.check and (drifted or pins):
        print(
            f"{drifted} baseline(s) and {pins} payload pin(s) drifted; "
            "rerun without --check to accept"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
