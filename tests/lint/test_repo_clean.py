"""Meta-test: the live repository is lint-clean.

This is the zero-findings baseline the CI lint job also enforces — any
new finding (or newly-unused suppression) in shipped code fails tier-1,
so the analyzer's verdict can never silently rot.
"""

import os

from repro.lint import DEFAULT_PATHS, lint_paths, rule_ids

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def test_repository_is_lint_clean():
    paths = [
        path
        for path in DEFAULT_PATHS
        if os.path.exists(os.path.join(REPO_ROOT, path))
    ]
    assert paths, "default lint paths missing from the repository"
    findings = lint_paths(paths, root=REPO_ROOT)
    formatted = "\n".join(
        f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}" for f in findings
    )
    assert findings == [], f"repository lint findings:\n{formatted}"


def test_all_four_rules_are_registered():
    assert rule_ids() == ["RPR001", "RPR002", "RPR003", "RPR004"]
