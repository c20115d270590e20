"""Job payload pins: one digest per job kind, tied to its key version.

A job key hashes the kind, its ``KIND_VERSIONS`` entry, the params and
the dependency keys, but not the code that computes the payload.  So a
change that alters a kind's payload for the same params and deps must
bump that kind's version, or every existing cache keeps serving the old
payload under the old key.  ``baselines/job_payloads.json`` pins
``{kind: {"version", "sha256"}}`` over the payloads of one small fixed
sweep (:func:`repro.evaluation.fingerprint.job_payload_pins`); this test
fails when a digest changes without a version bump, and when a version
changes without a new pin.  After a deliberate change, bump the version
and re-pin with::

    PYTHONPATH=src python tools/write_baselines.py

which refuses to record a changed digest under an unchanged version.
"""

import json
from pathlib import Path

from repro.evaluation.fingerprint import job_payload_pins
from repro.orchestration.jobs import JOB_KINDS, KIND_VERSIONS, job_key

PINS_PATH = Path(__file__).resolve().parent / "baselines" / "job_payloads.json"


def test_job_payloads_match_their_pins():
    pinned = json.loads(PINS_PATH.read_text())
    fresh = job_payload_pins()
    assert set(fresh) == set(pinned) == set(JOB_KINDS)
    for kind, pin in fresh.items():
        assert pin["version"] == pinned[kind]["version"], (
            f"{kind} version changed to {pin['version']} without a new pin; "
            "rerun tools/write_baselines.py and commit job_payloads.json"
        )
        assert pin["sha256"] == pinned[kind]["sha256"], (
            f"{kind} payloads changed under version {pin['version']}; bump "
            f"KIND_VERSIONS[{kind!r}] in repro.orchestration.jobs, then "
            "rerun tools/write_baselines.py"
        )


def test_a_version_bump_rekeys_only_that_kind(monkeypatch):
    params = {"topology": "grid"}
    analyze, gp = job_key("analyze", params, ("dep",)), job_key("gp", params)
    monkeypatch.setitem(KIND_VERSIONS, "analyze", KIND_VERSIONS["analyze"] + 1)
    assert job_key("analyze", params, ("dep",)) != analyze
    assert job_key("gp", params) == gp
