"""RPR002 — content-key purity in the orchestration package.

Job content keys are SHA-256 over canonical JSON (sorted keys, exact
float round-trips); artifacts are that canonical text verbatim.  The
whole caching/fleet edifice — dedup across tenants, zero-recompute
resumes, byte-identical push/pull chains — rests on nothing
non-canonical leaking into params, keys or payload text.  Inside
``src/repro/orchestration/`` this rule flags:

* ``json.dumps(...)`` **without** ``sort_keys=True`` — non-canonical
  text near the canonicalizer is a byte-identity bug waiting for a
  refactor.  ``jobs.py`` (home of ``canonical_json``) and ``store.py``
  (whose round-trip ``put`` deliberately preserves payload insertion
  order) are exempt; protocol/IO sites that must not re-order bytes
  carry an explicit ``lint-ignore`` with their justification;
* builtin ``hash(...)`` — salted per process for strings
  (``PYTHONHASHSEED``); stable keys come from ``hashlib`` over
  canonical JSON, nothing else;
* wall-clock calls (``time.time`` / ``datetime.now``) in the argument
  tree of ``Job.create`` / ``job_key`` — a float from the clock in
  params defeats content addressing even when RPR001's broader scope
  is suppressed.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.core import FileContext, Finding, Rule, register

#: Calls that build content keys; their args must be clock-free.
_KEY_BUILDERS = frozenset({"job_key", "create"})

_CLOCKS = frozenset(
    {"time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
     "datetime.datetime.now", "datetime.datetime.utcnow"}
)


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@register
class ContentKeyPurityRule(Rule):
    """json.dumps canonicality, hash() ban, clock-free key params."""

    id = "RPR002"
    name = "content-key-purity"
    scope = ("src/repro/orchestration/",)

    #: Files allowed to call json.dumps without sort_keys: the
    #: canonicalizer itself, and the store whose put() round-trip must
    #: preserve payload insertion order (its output *is* canonical form).
    _DUMPS_EXEMPT = (
        "src/repro/orchestration/jobs.py",
        "src/repro/orchestration/store.py",
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        dumps_exempt = any(
            ctx.path.startswith(prefix) for prefix in self._DUMPS_EXEMPT
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted == "json.dumps" and not dumps_exempt:
                if not any(
                    kw.arg == "sort_keys" for kw in node.keywords
                ):
                    findings.append(
                        self._finding(
                            ctx,
                            node,
                            "json.dumps without sort_keys=True in the "
                            "orchestration package — non-canonical text "
                            "near the content-key path; use canonical_json "
                            "(jobs.py), or lint-ignore with a reason if "
                            "these bytes must keep payload order",
                        )
                    )
            elif isinstance(node.func, ast.Name) and node.func.id == "hash" \
                    and len(node.args) == 1:
                findings.append(
                    self._finding(
                        ctx,
                        node,
                        "builtin hash() is salted per process "
                        "(PYTHONHASHSEED) — derive stable keys with "
                        "hashlib over canonical JSON instead",
                    )
                )
            elif self._is_key_builder(dotted):
                for inner in ast.walk(node):
                    if inner is node or not isinstance(inner, ast.Call):
                        continue
                    inner_dotted = _dotted(inner.func)
                    if inner_dotted in _CLOCKS:
                        findings.append(
                            self._finding(
                                ctx,
                                inner,
                                f"{inner_dotted}() inside {dotted}(...) "
                                "arguments — a clock float in job params "
                                "makes every rerun a cache miss",
                            )
                        )
        return findings

    @staticmethod
    def _is_key_builder(dotted: Optional[str]) -> bool:
        if dotted is None:
            return False
        tail = dotted.rsplit(".", 1)[-1]
        if tail == "job_key":
            return True
        # Job.create(...) — match the two-part attribute form only, so
        # unrelated .create() factories elsewhere don't trip the rule.
        return dotted.endswith("Job.create")

    def _finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )
