"""``repro lint`` — AST-based invariant checking for this reproduction.

The dynamic suites (hypothesis parity, the chaos harness) prove the
determinism / purity / lock / process-boundary invariants hold on the
paths they exercise; this package checks them *statically*, on every
path, at review time.  Four rules are wired to the repo's real
invariants — see ``docs/lint.md`` for the catalog and rationale:

=========  ==================================================
RPR001     nondeterminism on the content-key path
RPR002     content-key purity in ``orchestration/``
RPR003     lock discipline (``# guarded-by`` / ``# holds``)
RPR004     process-boundary safety (picklable submissions)
=========  ==================================================

Plus two driver-level diagnostics: ``RPR000`` (a ``# repro:
lint-ignore[...]`` comment that suppressed nothing) and ``E001`` (a
file the parser rejected).

Run it as ``repro lint [paths] [--rule ID] [--format text|json|github]``
or ``python tools/lint.py``; the repository is kept lint-clean (a
tier-1 meta-test and the CI lint job both enforce it).
"""

from repro.lint.core import (
    PARSE_ERROR_ID,
    REGISTRY,
    UNUSED_SUPPRESSION_ID,
    FileContext,
    Finding,
    Rule,
    lint_paths,
    lint_source,
    register,
    rule_ids,
    select_rules,
)

# Importing the rule modules populates REGISTRY.
from repro.lint import (  # noqa: F401  (imported for registration)
    rules_determinism,
    rules_locks,
    rules_process,
    rules_purity,
)
from repro.lint.output import FORMATS, render

#: The paths ``repro lint`` checks when none are given: all shipped
#: code.  ``tests/`` is deliberately absent — tests/lint/fixtures holds
#: intentionally-bad snippets every rule must fire on.
DEFAULT_PATHS = ("src", "tools", "examples", "benchmarks")

__all__ = [
    "DEFAULT_PATHS",
    "FORMATS",
    "FileContext",
    "Finding",
    "PARSE_ERROR_ID",
    "REGISTRY",
    "Rule",
    "UNUSED_SUPPRESSION_ID",
    "lint_paths",
    "lint_source",
    "register",
    "render",
    "rule_ids",
    "select_rules",
]
