"""Span tracing from outside the program, for the traced per-layer run.

The tracer replaces each layer's public function *at the import site the
flow and the stage runners call it through* (``repro.core.pipeline
.layout_metrics``, ``repro.orchestration.stages.transpile``, ...) with a
wrapper that records a span, so nothing under ``src/`` changes.  Spans
are recorded only inside an op (a root span opened by :meth:`Tracer.op`),
kept in memory, and aggregated or written out after the run.

A span's self time is its duration minus the durations of its children;
calls within one thread nest strictly, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class Span:
    __slots__ = ("name", "start", "end", "children", "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = 0
        self.end = 0
        self.children = []
        self.counts = {}

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - sum(c.duration_ns for c in self.children)


def _qubit_attempts(span: Span, result) -> None:
    span.counts["attempts"] = result.attempts


def _dp_counts(span: Span, result) -> None:
    span.counts["flagged"] = result.flagged
    span.counts["accepted"] = result.accepted
    span.counts["reverted"] = result.reverted


#: (module[:class], attribute, span name, result annotator).  A span name
#: containing ``{kind}`` is formatted with the call's first argument.
SITES = (
    ("repro.core.pipeline", "build_layout", "build", None),
    ("repro.orchestration.stages", "build_layout", "build", None),
    ("repro.placement.global_placer:GlobalPlacer", "run", "gp", None),
    ("repro.core.pipeline", "run_legalization", "lg", None),
    ("repro.orchestration.stages", "run_legalization", "lg", None),
    ("repro.legalization.engines", "legalize_qubits", "lg.qubit", _qubit_attempts),
    ("repro.legalization.qubit_legalizer", "legalize_macros", "lg.qubit.lp", None),
    ("repro.legalization.engines", "integration_aware_legalize",
     "lg.resonator.integration", None),
    ("repro.legalization.engines", "abacus_legalize", "lg.resonator.abacus", None),
    ("repro.legalization.engines", "tetris_legalize", "lg.resonator.tetris", None),
    ("repro.detailed.placer:DetailedPlacer", "run", "dp", _dp_counts),
    ("repro.detailed.placer", "qubit_hotspot_pairs", "dp.qubit_hotspot_pairs", None),
    ("repro.core.pipeline", "layout_metrics", "metrics.layout", None),
    ("repro.orchestration.stages", "layout_metrics", "metrics.layout", None),
    ("repro.metrics.report", "hotspot_report", "metrics.hotspots", None),
    ("repro.orchestration.stages", "hotspot_pairs", "metrics.hotspots", None),
    ("repro.metrics.report", "count_crossings", "metrics.crossings", None),
    ("repro.orchestration.stages", "count_crossings", "metrics.crossings", None),
    ("repro.metrics.report", "check_legality", "metrics.legality", None),
    ("repro.metrics.report", "qubit_spacing_violations", "metrics.spacing", None),
    ("repro.orchestration.stages", "qubit_spacing_violations", "metrics.spacing", None),
    ("repro.metrics.report", "integration_ratio", "metrics.integration", None),
    ("repro.metrics.report", "total_clusters", "metrics.integration", None),
    ("repro.orchestration.stages", "transpile", "compiler.transpile", None),
    ("repro.orchestration.stages", "program_fidelity", "crosstalk.fidelity", None),
    ("repro.orchestration.sweep", "plan_sweep", "orch.plan", None),
    ("repro.orchestration.sweep", "run_jobs", "orch.executor", None),
    ("repro.orchestration.executor", "execute_job", "orch.job.{kind}", None),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span recorder; one root span per op in :attr:`ops`."""

    def __init__(self) -> None:
        self.stack = []
        self.ops = []
        self._patches = []

    @contextmanager
    def op(self):
        """Open the root span of one op."""
        if self.stack:
            raise RuntimeError("ops do not nest")
        root = Span("op")
        self.stack.append(root)
        root.start = perf_counter_ns()
        try:
            yield root
        finally:
            root.end = perf_counter_ns()
            self.stack.pop()
            self.ops.append(root)

    @contextmanager
    def span(self, name: str):
        """A child span of the innermost open span; a no-op outside ops."""
        if not self.stack:
            yield None
            return
        span = Span(name)
        self.stack[-1].children.append(span)
        self.stack.append(span)
        span.start = perf_counter_ns()
        try:
            yield span
        finally:
            span.end = perf_counter_ns()
            self.stack.pop()

    def install(self) -> None:
        """Wrap every site; :meth:`uninstall` restores the originals."""
        for target, attr, name, annotate in SITES:
            owner = _resolve(target)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, annotate))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name: str, annotate):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return original(*args, **kwargs)
            label = name.format(kind=args[0]) if "{kind}" in name else name
            with tracer.span(label) as span:
                result = original(*args, **kwargs)
            if annotate is not None:
                annotate(span, result)
            return result

        return traced


class LayerTotals:
    """Per-name sums over the recorded ops."""

    def __init__(self, ops: list) -> None:
        self.num_ops = len(ops)
        self.wall_ns = sum(op.duration_ns for op in ops)
        self.inclusive_ns = defaultdict(int)  # outermost span of a name only
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)  # "<span>.<count>" -> sum
        for op in ops:
            self._visit(op, frozenset())

    def _visit(self, span: Span, ancestors: frozenset) -> None:
        if span.name not in ancestors:
            self.inclusive_ns[span.name] += span.duration_ns
        self.self_ns[span.name] += span.self_ns
        self.calls[span.name] += 1
        for key, value in span.counts.items():
            self.counts[f"{span.name}.{key}"] += value
        inner = ancestors | {span.name}
        for child in span.children:
            self._visit(child, inner)

    def seconds_per_op(self, name: str) -> float:
        return self.inclusive_ns[name] / 1e9 / self.num_ops

    def calls_per_op(self, name: str) -> float:
        return self.calls[name] / self.num_ops

    def count_per_op(self, key: str) -> float:
        return self.counts[key] / self.num_ops

    @property
    def unattributed_share(self) -> float:
        """Share of op wall time outside every named layer span."""
        return self.self_ns["op"] / self.wall_ns


def span_tree_lines(ops: list) -> list:
    """The span tree merged over ops by name path, one line per node:
    per-op inclusive and self seconds, calls per op, share of op wall."""
    def new_node() -> dict:
        return {"inclusive": 0, "self": 0, "calls": 0, "children": {}}

    def merge(span: Span, siblings: dict) -> None:
        node = siblings.setdefault(span.name, new_node())
        node["inclusive"] += span.duration_ns
        node["self"] += span.self_ns
        node["calls"] += 1
        for child in span.children:
            merge(child, node["children"])

    roots = {}
    for op in ops:
        merge(op, roots)
    count = len(ops)
    wall = sum(op.duration_ns for op in ops)
    lines = [f"{'span':<48}{'incl_s':>10}{'self_s':>10}{'calls':>10}{'share':>8}"]

    def emit(name: str, node: dict, depth: int) -> None:
        lines.append(
            f"{'  ' * depth + name:<48}"
            f"{node['inclusive'] / 1e9 / count:>10.4f}"
            f"{node['self'] / 1e9 / count:>10.4f}"
            f"{node['calls'] / count:>10.1f}"
            f"{node['inclusive'] / wall:>8.1%}"
        )
        for child_name, child in node["children"].items():
            emit(child_name, child, depth + 1)

    for name, node in roots.items():
        emit(name, node, 0)
    return lines
