"""The ``repro lint`` driver: files -> AST -> rules -> findings.

This module owns everything rule-independent:

* :class:`Finding` — one diagnostic, stable and JSON-safe;
* :class:`Rule` and :data:`REGISTRY` — the rule contract and the
  ``@register`` decorator rule modules use to plug in;
* :class:`FileContext` — a parsed file handed to every rule (source
  text, lines, AST and a parent map so rules can walk *up* the tree);
* suppression handling — ``# repro: lint-ignore[RPR001]`` on a flagged
  line (or alone on the line above) silences matching findings, and a
  suppression that silences nothing is itself reported as
  :data:`UNUSED_SUPPRESSION_ID` so dead ignores cannot accumulate;
* :func:`lint_source` / :func:`lint_paths` — the entry points the CLI,
  ``tools/lint.py`` and the test suite share.

Rules see files through *display paths*: forward-slash, relative to the
lint root, e.g. ``src/repro/orchestration/store.py``.  A rule's
``scope`` / ``exempt`` tuples are substring prefixes matched against
that form, which is what lets RPR001 skip the CLI and visualization
modules while RPR002 applies only to ``orchestration/``.  See
``docs/lint.md`` for the rule catalog.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Pseudo rule id for a suppression comment that silenced nothing.
UNUSED_SUPPRESSION_ID = "RPR000"

#: Pseudo rule id for a file the parser rejected (lint cannot vouch for it).
PARSE_ERROR_ID = "E001"

#: The suppression comment form — must open the comment, trailing
#: rationale text is encouraged: ``# repro: lint-ignore[RPR001] why``.
_SUPPRESS = re.compile(r"^#\s*repro:\s*lint-ignore\[([A-Za-z0-9_,\s]+)\]")

#: Directory names never descended into when walking lint paths.
SKIPPED_DIRS = frozenset(
    {".git", "__pycache__", ".repro_cache", ".pytest_cache", ".mypy_cache"}
)


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where, which rule, and what to do about it."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (the ``--format=json`` row schema)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class FileContext:
    """One parsed file, shared by every rule that inspects it.

    ``path`` is the display path (posix separators, relative to the lint
    root).  ``lines`` are raw source lines so comment-based conventions
    (``# guarded-by``, ``# holds``) survive — the AST drops comments.
    ``parent_of`` maps each AST node to its parent, letting rules ask
    "is this set iteration wrapped in ``sorted()``?" without threading
    state through a visitor.
    """

    def __init__(self, path: str, text: str, tree: ast.Module) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self.parent_of: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parent_of[child] = node

    def line_text(self, lineno: int) -> str:
        """The 1-based source line, or '' past EOF (defensive)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        """The node's parents, innermost first."""
        current: Optional[ast.AST] = self.parent_of.get(node)
        while current is not None:
            yield current
            current = self.parent_of.get(current)


class Rule(ABC):
    """One lint rule.  Subclasses are registered via :func:`register`.

    Class attributes:

    * ``id`` — the stable rule id (``RPR001`` ...), used in output, in
      ``--rule`` filters, in suppression comments and in the docs
      catalog sync check;
    * ``name`` — a short kebab-case label;
    * ``scope`` — display-path prefixes the rule applies to (empty
      means every file);
    * ``exempt`` — display-path prefixes excluded *within* the scope.
    """

    id: str = ""
    name: str = ""
    scope: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on the file at ``path`` (display form)."""
        if any(path.startswith(prefix) for prefix in self.exempt):
            return False
        if not self.scope:
            return True
        return any(path.startswith(prefix) for prefix in self.scope)

    @abstractmethod
    def check(self, ctx: FileContext) -> List[Finding]:
        """Findings for one file (unsuppressed; the driver filters)."""


#: Rule id -> rule instance.  Populated by the rule modules at import.
REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator: instantiate and register a :class:`Rule`."""
    instance = cls()
    if not instance.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if instance.id in REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id}")
    REGISTRY[instance.id] = instance
    return cls


def rule_ids() -> List[str]:
    """Registered rule ids, sorted."""
    return sorted(REGISTRY)


def select_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """The rules to run: all registered, or the ``--rule`` subset."""
    if only is None:
        return [REGISTRY[rule_id] for rule_id in rule_ids()]
    chosen = []
    for rule_id in only:
        if rule_id not in REGISTRY:
            raise ValueError(
                f"unknown rule {rule_id!r}; available: {', '.join(rule_ids())}"
            )
        chosen.append(REGISTRY[rule_id])
    return chosen


# -- suppressions -------------------------------------------------------------
@dataclass
class _Suppression:
    """One ``lint-ignore`` comment: the lines and rule ids it covers."""

    line: int  # the line the comment sits on
    target: int  # the code line it silences (== line for inline form)
    rules: Tuple[str, ...]
    used: bool = False

    def covers(self, finding_line: int, rule: str) -> bool:
        if rule not in self.rules:
            return False
        return finding_line in (self.line, self.target)


def _suppression_target(lines: Sequence[str], comment_line: int) -> int:
    """The code line a standalone suppression covers.

    The first following line that is not blank and not itself a comment
    — so a multi-line rationale comment under the ``lint-ignore`` still
    points at the statement below it.
    """
    for number in range(comment_line, len(lines)):
        stripped = lines[number].strip()  # lines[n] is line n+1
        if stripped and not stripped.startswith("#"):
            return number + 1
    return comment_line


def _collect_suppressions(text: str, lines: Sequence[str]) -> List[_Suppression]:
    # Tokenize rather than regex-scan raw lines: the suppression syntax
    # is quoted in docstrings (this file's included) and those must not
    # count as live — only real COMMENT tokens do.
    found = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS.match(token.string)
            if match is None:
                continue
            rules = tuple(
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            )
            number = token.start[0]
            standalone = token.line.lstrip().startswith("#")
            target = (
                _suppression_target(lines, number) if standalone else number
            )
            found.append(_Suppression(number, target, rules))
    except tokenize.TokenizeError:  # pragma: no cover - ast parsed already
        pass
    return found


def _apply_suppressions(
    findings: List[Finding], suppressions: List[_Suppression], path: str
) -> List[Finding]:
    """Drop suppressed findings; report suppressions that did nothing."""
    kept = []
    for finding in findings:
        covering = next(
            (
                s
                for s in suppressions
                if s.covers(finding.line, finding.rule)
            ),
            None,
        )
        if covering is None:
            kept.append(finding)
        else:
            covering.used = True
    for suppression in suppressions:
        if not suppression.used:
            kept.append(
                Finding(
                    path=path,
                    line=suppression.line,
                    col=0,
                    rule=UNUSED_SUPPRESSION_ID,
                    message=(
                        "unused suppression: lint-ignore"
                        f"[{','.join(suppression.rules)}] matched no finding "
                        "— remove it (or fix the rule id)"
                    ),
                )
            )
    return kept


# -- entry points -------------------------------------------------------------
def lint_source(
    text: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one source string as if it lived at display path ``path``."""
    active = list(rules) if rules is not None else select_rules()
    display = path.replace(os.sep, "/")
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        return [
            Finding(
                path=display,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule=PARSE_ERROR_ID,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = FileContext(display, text, tree)
    findings: List[Finding] = []
    applicable = [rule for rule in active if rule.applies_to(display)]
    for rule in applicable:
        findings.extend(rule.check(ctx))
    active_ids = {rule.id for rule in active}
    suppressions = [
        s
        for s in _collect_suppressions(ctx.text, ctx.lines)
        # Only judge suppressions for rules this run actually executed:
        # a --rule RPR002 pass must not report RPR001 ignores as unused.
        if any(rule_id in active_ids for rule_id in s.rules)
    ]
    findings = _apply_suppressions(findings, suppressions, display)
    return sorted(findings)


def _python_files(paths: Sequence[str], root: str) -> List[str]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    files = []
    for path in paths:
        resolved = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isfile(resolved):
            files.append(resolved)
            continue
        for dirpath, dirnames, filenames in os.walk(resolved):
            dirnames[:] = sorted(
                d for d in dirnames if d not in SKIPPED_DIRS
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    files.append(os.path.join(dirpath, name))
    return sorted(set(files))


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[str] = None,
) -> List[Finding]:
    """Lint every Python file under ``paths``; returns sorted findings.

    ``root`` anchors display paths (default: the current directory), so
    running from the repo root and running ``tools/lint.py`` from
    anywhere report identical paths — and rule scopes match either way.
    """
    base = os.path.abspath(root or os.getcwd())
    findings: List[Finding] = []
    for file_path in _python_files(paths, base):
        display = os.path.relpath(file_path, base).replace(os.sep, "/")
        with open(file_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        findings.extend(lint_source(text, display, rules))
    return sorted(findings)
