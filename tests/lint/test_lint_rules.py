"""Every lint rule fires on its bad fixture and stays quiet on the good one.

Fixtures live in ``fixtures/`` as real Python files (they must parse);
each is linted under a *virtual* display path inside the rule's scope,
so the scope machinery is exercised too.  The counts pin the exact
number of violations each bad fixture deliberately contains — a rule
that starts double-reporting or missing a shape fails here first.
"""

import os

import pytest

from repro.lint import lint_source, select_rules

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: rule id -> (virtual path inside the rule's scope, bad-fixture findings)
CASES = {
    "RPR001": ("src/repro/placement/fixture.py", 8),
    "RPR002": ("src/repro/orchestration/fixture.py", 4),
    "RPR003": ("src/repro/orchestration/fixture.py", 2),
    "RPR004": ("src/repro/orchestration/fixture.py", 5),
}


def fixture_text(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


def run_rule(rule_id, fixture, path):
    return lint_source(fixture_text(fixture), path, select_rules([rule_id]))


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_bad_fixture_fires(rule_id):
    path, expected = CASES[rule_id]
    findings = run_rule(rule_id, f"{rule_id.lower()}_bad.py", path)
    assert len(findings) == expected
    assert all(f.rule == rule_id for f in findings)
    assert all(f.path == path for f in findings)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_good_fixture_is_clean(rule_id):
    path, _ = CASES[rule_id]
    assert run_rule(rule_id, f"{rule_id.lower()}_good.py", path) == []


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_out_of_scope_path_is_skipped(rule_id):
    findings = run_rule(
        rule_id, f"{rule_id.lower()}_bad.py", "examples/fixture.py"
    )
    if rule_id in ("RPR003", "RPR004"):  # unscoped rules run everywhere
        assert findings
    else:
        assert findings == []


def test_rpr001_exempt_paths():
    findings = lint_source(
        fixture_text("rpr001_bad.py"),
        "src/repro/visualization/fixture.py",
        select_rules(["RPR001"]),
    )
    assert findings == []


def test_findings_are_sorted_and_stable():
    path, _ = CASES["RPR001"]
    findings = run_rule("RPR001", "rpr001_bad.py", path)
    assert findings == sorted(findings)
    lines = [f.line for f in findings]
    assert lines == sorted(lines)
