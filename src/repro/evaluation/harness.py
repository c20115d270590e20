"""Evaluation harness: topology × benchmark × engine × mapping-seed sweeps.

The paper's protocol (Section V): for every topology and legalization
strategy, the same GP solution is legalized, then each benchmark is mapped
50 times with random initial placements and the mean Eq. 7 fidelity is
reported.  Layout-level metrics (Ph, HQ, X, Iedge, runtimes) come from the
same legalized layouts.

Since the orchestration subsystem landed, this module is a thin facade:
:func:`evaluate_engines` and :func:`evaluate_fidelity` plan the same
content-addressed job graphs the ``repro sweep`` CLI runs (GP once per
topology, one transpile job per (topology, benchmark) that maps the
benchmark once per mapping seed, one ``analyze`` job per layout) and
execute them with the in-process serial executor.  Results are
bit-identical whether the jobs run here, in a worker pool, or come back
from the disk artifact cache — see ``docs/orchestration.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.core.config import QGDPConfig
from repro.crosstalk.parameters import DEFAULT_NOISE, NoiseParameters
from repro.metrics.report import LayoutMetrics
from repro.orchestration.executor import RunStats, run_jobs
from repro.orchestration.jobs import JobGraph, canonical_json
from repro.orchestration.stages import config_to_dict, noise_to_dict
from repro.orchestration.store import ArtifactStore, resolve_store
from repro.orchestration.sweep import (
    SweepSpec,
    add_layout_jobs,
    analysis_job,
    run_sweep,
)


@dataclass
class EvaluationConfig:
    """Knobs of the sweep (defaults mirror the paper, seeds reduced)."""

    num_seeds: int = 50
    base_seed: int = 11
    detailed: bool = False
    config: QGDPConfig = field(default_factory=QGDPConfig)
    noise: NoiseParameters = field(default_factory=lambda: DEFAULT_NOISE)


@dataclass
class FidelityCell:
    """Mean fidelity of one (topology, benchmark, engine) cell."""

    topology: str
    benchmark: str
    engine: str
    mean: float
    minimum: float
    maximum: float
    samples: list = field(default_factory=list)


@dataclass
class EngineEvaluation:
    """Layout-level outcome of one engine on one topology."""

    topology: str
    engine: str
    metrics: object  # LayoutMetrics
    qubit_time_s: float
    resonator_time_s: float
    dp_time_s: float = 0.0
    dp_metrics: object = None


def sweep_spec(
    topology_names: list,
    benchmark_names: list,
    engine_names: list,
    eval_config: EvaluationConfig = None,
) -> SweepSpec:
    """The :class:`SweepSpec` equivalent of an :class:`EvaluationConfig`."""
    eval_config = eval_config or EvaluationConfig()
    return SweepSpec(
        topologies=tuple(topology_names),
        benchmarks=tuple(benchmark_names),
        engines=tuple(engine_names),
        num_seeds=eval_config.num_seeds,
        base_seed=eval_config.base_seed,
        detailed=eval_config.detailed,
        config=config_to_dict(eval_config.config),
        noise=noise_to_dict(eval_config.noise),
    )


def cells_from_sweep(sweep_cells: dict) -> dict:
    """Wrap raw sweep cell stats into :class:`FidelityCell` values."""
    return {
        (topo, bench, engine): FidelityCell(
            topology=topo,
            benchmark=bench,
            engine=engine,
            mean=cell["mean"],
            minimum=cell["minimum"],
            maximum=cell["maximum"],
            samples=cell["samples"],
        )
        for (topo, bench, engine), cell in sweep_cells.items()
    }


def plan_engine_evaluations(
    topology_names: list,
    engine_names: list,
    eval_config: EvaluationConfig = None,
) -> tuple:
    """Plan the Fig. 9 / Table II–III job graph.

    Per topology: the gp → lg → dp layout jobs of
    :func:`~repro.orchestration.sweep.add_layout_jobs` (a ``dp`` job for
    qGDP only, as in the paper) and one ``analyze`` job on each layout
    of each engine's chain.  Fidelity sweeps plan their layout and
    analyze jobs through the same functions, so tables and sweeps
    sharing a cache directory share those artifacts.

    Returns ``(graph, keys)`` with ``keys`` mapping
    ``(topology, engine)`` to the chain's ``(layout key, analyze key)``
    pairs: the ``lg`` pair, then the ``dp`` pair for qGDP.
    """
    eval_config = eval_config or EvaluationConfig()
    cfg_dict = config_to_dict(eval_config.config)
    graph = JobGraph()
    keys = {}
    for topology_name in topology_names:
        chains = add_layout_jobs(
            graph, topology_name, engine_names, cfg_dict, detailed=True
        )
        for engine_name, chain in chains.items():
            keys[(topology_name, engine_name)] = [
                (layout.key, graph.add(analysis_job(layout)).key)
                for layout in chain
            ]
    return (graph, keys)


@dataclass
class EngineSweepResult:
    """What :func:`run_engine_evaluations` produced."""

    evaluations: dict  # topology -> {engine: EngineEvaluation}
    stats: RunStats
    manifest: dict

    @property
    def rows(self) -> list:
        """JSONL-ready result rows, one per (topology, engine)."""
        rows = []
        for topo, engines in self.evaluations.items():
            for engine, ev in engines.items():
                rows.append(
                    {
                        "topology": topo,
                        "engine": engine,
                        "metrics": asdict(ev.metrics),
                        "dp_metrics": (
                            None
                            if ev.dp_metrics is None
                            else asdict(ev.dp_metrics)
                        ),
                        "qubit_time_s": ev.qubit_time_s,
                        "resonator_time_s": ev.resonator_time_s,
                        "dp_time_s": ev.dp_time_s,
                    }
                )
        return rows


def run_engine_evaluations(
    topology_names: list,
    engine_names: list,
    eval_config: EvaluationConfig = None,
    cache_dir: Optional[str] = None,
    workers: int = 0,
    resume: bool = False,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    store: Optional[ArtifactStore] = None,
    progress=None,
    cache_url: Optional[str] = None,
) -> EngineSweepResult:
    """Evaluate every engine on every topology through the orchestrator.

    The cached counterpart of :func:`evaluate_engines` and the engine
    behind ``repro tables``: plans the graph from
    :func:`plan_engine_evaluations` and executes it with the shared
    executor, so ``cache_dir`` / ``cache_url`` / ``resume`` /
    ``workers`` / ``retries`` / ``timeout_s`` behave exactly as they do
    for fidelity sweeps (``cache_url`` selects a storage backend by URL
    — ``dir:``, ``sqlite:``, ``http://`` — see ``docs/storage.md``).
    The metrics come from the ``analyze`` payloads and the Table II
    timings from the ``lg`` / ``dp`` payloads, so a warm cache replays
    the tables byte for byte, timings included.
    """
    eval_config = eval_config or EvaluationConfig()
    graph, keys = plan_engine_evaluations(
        topology_names, engine_names, eval_config
    )
    # The rows read the lg / dp and analyze payloads, never the gp ones.
    read = [key for chain in keys.values() for pair in chain for key in pair]
    owns_store = store is None
    if owns_store:
        store = resolve_store(cache_url=cache_url, cache_dir=cache_dir)
    try:
        payloads, stats = run_jobs(
            graph,
            store,
            workers=workers,
            resume=resume,
            progress=progress,
            retries=retries,
            timeout_s=timeout_s,
            outputs=read,
        )
    finally:
        # Close self-opened stores (sqlite handles); leave caller-owned
        # stores open for reuse.
        if owns_store:
            store.close()

    evaluations = {name: {} for name in topology_names}
    for (topology_name, engine_name), chain in keys.items():
        lg, lg_analysis = chain[0]
        evaluation = EngineEvaluation(
            topology=topology_name,
            engine=engine_name,
            metrics=LayoutMetrics(**payloads[lg_analysis]["metrics"]),
            qubit_time_s=payloads[lg]["qubit_time_s"],
            resonator_time_s=payloads[lg]["resonator_time_s"],
        )
        if len(chain) > 1:
            dp, dp_analysis = chain[1]
            evaluation.dp_metrics = LayoutMetrics(
                **payloads[dp_analysis]["metrics"]
            )
            evaluation.dp_time_s = payloads[dp]["dp_time_s"]
        evaluations[topology_name][engine_name] = evaluation

    spec = {
        "kind": "tables",
        "topologies": list(topology_names),
        "engines": list(engine_names),
        "config": config_to_dict(eval_config.config),
    }
    run_id = hashlib.sha256(
        canonical_json(spec).encode("utf-8")
    ).hexdigest()[:12] + "-tables"
    manifest = {
        "run_id": run_id,
        "spec": spec,
        "workers": workers,
        "resume": resume,
        "retries": retries,
        "timeout_s": timeout_s,
        "jobs": stats.to_dict(),
        "num_rows": sum(len(engines) for engines in evaluations.values()),
    }
    return EngineSweepResult(
        evaluations=evaluations, stats=stats, manifest=manifest
    )


def evaluate_engines(
    topology_name: str,
    engines: list,
    eval_config: EvaluationConfig = None,
) -> dict:
    """Legalize one topology with every engine; return layout evaluations.

    qGDP additionally gets a detailed placement pass, reported separately
    as ``dp_metrics`` — the paper only runs qGDP-DP on top of qGDP-LG.
    This is the in-process serial facade over
    :func:`run_engine_evaluations`; pass a cache there for warm-cache
    table regeneration.
    """
    outcome = run_engine_evaluations([topology_name], engines, eval_config)
    return outcome.evaluations[topology_name]


def evaluate_fidelity(
    topology_names: list,
    benchmark_names: list,
    engine_names: list,
    eval_config: EvaluationConfig = None,
) -> dict:
    """Full Fig. 8 sweep.

    Returns ``{(topology, benchmark, engine): FidelityCell}``.
    """
    spec = sweep_spec(topology_names, benchmark_names, engine_names, eval_config)
    return cells_from_sweep(run_sweep(spec).cells)
