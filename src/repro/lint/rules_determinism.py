"""RPR001 — nondeterminism on the content-key / canonical-JSON path.

Every artifact this reproduction caches is addressed by a content key,
and every parity suite asserts bit-identical payloads between serial,
pooled and fleet execution.  That guarantee dies the moment a stage
consults process-local entropy, so this rule flags, in the modules whose
output feeds content-addressed payloads:

* **unseeded RNG** — module-level ``random.random()`` / ``random
  .randint`` / ... calls, ``random.Random()`` with no seed,
  ``np.random.<legacy>`` global-state calls, and
  ``np.random.default_rng()`` with no seed.  Randomness must flow from
  a seeded generator threaded through params (the way
  ``GlobalPlacer`` / ``transpile`` already do it);
* **wall-clock reads** — ``time.time()`` / ``time.time_ns()`` /
  ``datetime.now()`` and friends.  A float from the clock in a payload
  or key makes every rerun a cache miss.  (``time.perf_counter`` is
  allowed: it only ever feeds the wall-clock fields ``repro diff``
  ignores.)
* **set-ordered iteration** — a ``for`` loop or comprehension iterating
  a set display, ``set(...)`` call or set union/intersection.  Set
  order is hash-table order; feeding it into results makes output
  depend on insertion history (and on ``PYTHONHASHSEED`` for strings).
  Wrapping the set in ``sorted(...)`` — or an order-insensitive
  reduction such as ``min`` / ``max`` / ``sum`` / ``any`` / ``all`` —
  satisfies the rule.
* **object identity** — builtin ``id(...)``.  Ids are process-specific
  and reused once an object is freed, so an id in a key, a param dict
  or a memo can point at a different object than the one it was taken
  from.  Key by value, or keep per-object state on the object.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.core import FileContext, Finding, Rule, register

#: random-module functions whose global-state calls are flagged.
_RANDOM_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "betavariate", "expovariate",
        "gammavariate", "gauss", "lognormvariate", "normalvariate",
        "vonmisesvariate", "paretovariate", "weibullvariate",
        "getrandbits", "randbytes",
    }
)

#: numpy.random attributes that are *not* the legacy global-state API.
_NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
     "Philox", "SFC64", "MT19937", "RandomState"}
)

#: Fully dotted wall-clock reads (resolved via the attribute chain).
_WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today", "datetime.date.today",
    }
)

#: Ancestor calls that make set iteration order-insensitive.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset"}
)


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_set_expr(node: ast.AST) -> bool:
    """Whether an expression is statically a set (display, call, algebra)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register
class NondeterminismRule(Rule):
    """Unseeded RNG, wall-clock reads, set-ordered iteration, id()."""

    id = "RPR001"
    name = "nondeterminism"
    # The modules whose output lands in content-addressed payloads (or
    # in the layouts / analyses those payloads serialize).  The CLI and
    # visualization never feed keys; the lint package never runs inside
    # a job.
    scope = ("src/repro/",)
    exempt = (
        "src/repro/cli.py",
        "src/repro/visualization/",
        "src/repro/lint/",
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(ctx, node))
            elif isinstance(node, (ast.For, ast.comprehension)):
                findings.extend(self._check_iteration(ctx, node))
        return findings

    # -- unseeded RNG / wall clock / identity ----------------------------
    def _check_call(self, ctx: FileContext, node: ast.Call) -> List[Finding]:
        dotted = _dotted(node.func)
        if dotted is None:
            return []
        if dotted == "id" and len(node.args) == 1:
            return [
                self._finding(
                    ctx,
                    node,
                    "builtin id() is process-specific and reused after an "
                    "object is freed — never key params, payloads or memos "
                    "by it; key by value or keep state on the object",
                )
            ]
        if dotted in _WALL_CLOCK:
            return [
                self._finding(
                    ctx,
                    node,
                    f"wall-clock read {dotted}() on the content-key path — "
                    "a clock value in a payload or key breaks rerun "
                    "bit-identity (time.perf_counter is fine for the "
                    "wall_s fields repro diff ignores)",
                )
            ]
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] in _RANDOM_FUNCS:
                return [
                    self._finding(
                        ctx,
                        node,
                        f"unseeded global RNG call {dotted}() — thread a "
                        "seeded random.Random(seed) / np generator through "
                        "params instead",
                    )
                ]
            if parts[1] == "Random" and not node.args and not node.keywords:
                return [
                    self._finding(
                        ctx,
                        node,
                        "random.Random() without a seed draws from OS "
                        "entropy — pass an explicit seed derived from "
                        "job params",
                    )
                ]
        if parts[0] in ("np", "numpy") and len(parts) >= 2 \
                and parts[1] == "random":
            tail = parts[2] if len(parts) > 2 else ""
            if tail == "default_rng" and not node.args and not node.keywords:
                return [
                    self._finding(
                        ctx,
                        node,
                        "np.random.default_rng() without a seed — pass the "
                        "job's seed so reruns are bit-identical",
                    )
                ]
            if tail and tail not in _NP_RANDOM_OK:
                return [
                    self._finding(
                        ctx,
                        node,
                        f"legacy numpy global-state RNG call {dotted}() — "
                        "use np.random.default_rng(seed) and pass the "
                        "generator explicitly",
                    )
                ]
        return []

    # -- set iteration ----------------------------------------------------
    def _check_iteration(self, ctx: FileContext, node: ast.AST) -> List[Finding]:
        iterable = node.iter  # type: ignore[attr-defined]
        if not _is_set_expr(iterable):
            return []
        # A comprehension whose *result* feeds an order-insensitive
        # reduction (sorted(... for x in {a, b})) is safe; a bare For
        # statement never is.
        if isinstance(node, ast.comprehension):
            comp = next(
                (
                    ancestor
                    for ancestor in ctx.ancestors(iterable)
                    if isinstance(
                        ancestor,
                        (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                         ast.DictComp),
                    )
                ),
                None,
            )
            if isinstance(comp, (ast.SetComp, ast.DictComp)):
                return []  # building another unordered container: fine
            if comp is not None:
                for ancestor in ctx.ancestors(comp):
                    if (
                        isinstance(ancestor, ast.Call)
                        and isinstance(ancestor.func, ast.Name)
                        and ancestor.func.id in _ORDER_INSENSITIVE
                    ):
                        return []
        anchor = iterable
        return [
            self._finding(
                ctx,
                anchor,
                "iteration over a set has hash-table order, not a "
                "deterministic one — wrap the set in sorted(...) before "
                "iterating (or reduce with min/max/sum/any/all)",
            )
        ]

    def _finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )
