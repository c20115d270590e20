"""Sweep planning and the high-level ``run_sweep`` entry point.

A :class:`SweepSpec` captures the paper's evaluation protocol — topology
× benchmark × engine × mapping-seed — as plain data.  ``plan_sweep``
expands it into a content-addressed job graph:

* one ``gp`` job per topology,
* one ``lg`` job per (topology, engine), plus a ``dp`` job on top of the
  qGDP ``lg`` when the spec runs detailed placement
  (:func:`add_layout_jobs`, shared with the ``repro tables`` planner),
* one ``transpile`` job per (topology, benchmark) that fits, mapping
  the benchmark once per mapping seed (its params carry the whole seed
  list, so its key does too),
* one ``analyze`` job per (topology, engine) layout — the layout's one
  analysis (metrics and Eq. 7 rows), shared by that layout's cells — and
* one ``fidelity`` job per (topology, benchmark, engine) cell, depending
  on the layout's analysis and the benchmark's transpile job.

``run_sweep`` executes the graph (serially or across worker processes,
optionally against the disk artifact store) and assembles the cells in
plan order, so results are deterministic regardless of scheduling.
Sharding keeps ``1/n``-th of the cells plus the transitive upstream jobs
they need; shards share the artifact cache, so a topology's GP or a
benchmark's transpilations computed by one shard are a cache hit for
the next.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from repro.circuits.registry import get_benchmark
from repro.orchestration.coordinator import (
    FleetClient,
    FleetError,
    serialize_graph,
)
from repro.orchestration.executor import RunStats, run_jobs
from repro.orchestration.jobs import Job, JobGraph, canonical_json
from repro.orchestration.stages import config_to_dict, noise_to_dict
from repro.orchestration.store import ArtifactStore, resolve_store
from repro.core.config import QGDPConfig
from repro.crosstalk.parameters import DEFAULT_NOISE
from repro.topologies.registry import get_topology


@dataclass
class SweepSpec:
    """The full parameter set of one experiment sweep (JSON-safe).

    A spec is the paper's evaluation protocol as plain data: every
    (topology, benchmark, engine) combination gets one fidelity cell,
    sampled over ``num_seeds`` transpilation seeds derived from
    ``base_seed`` (see :meth:`mapping_seed`).  ``detailed=True`` runs
    qGDP's detailed placement on top of its legalization, matching the
    paper's qGDP-DP rows.  ``config`` and ``noise`` are the JSON-safe
    dict forms of :class:`~repro.core.config.QGDPConfig` and
    :class:`~repro.crosstalk.parameters.NoiseParameters` (see
    ``config_to_dict`` / ``noise_to_dict`` in
    :mod:`repro.orchestration.stages`).

    Only code-relevant parameters live here — worker counts, shard
    indices, cache paths and timeouts deliberately do not, so they can
    never perturb :attr:`spec_hash` or any job key: the same spec always
    addresses the same artifacts, whoever computes them.
    """

    topologies: tuple
    benchmarks: tuple
    engines: tuple
    num_seeds: int = 50
    base_seed: int = 11
    detailed: bool = False
    config: dict = field(default_factory=lambda: config_to_dict(QGDPConfig()))
    noise: dict = field(default_factory=lambda: noise_to_dict(DEFAULT_NOISE))

    def __post_init__(self) -> None:
        self.topologies = tuple(self.topologies)
        self.benchmarks = tuple(self.benchmarks)
        self.engines = tuple(self.engines)

    def to_dict(self) -> dict:
        """JSON-safe representation (stored in the run manifest)."""
        return {
            "topologies": list(self.topologies),
            "benchmarks": list(self.benchmarks),
            "engines": list(self.engines),
            "num_seeds": self.num_seeds,
            "base_seed": self.base_seed,
            "detailed": self.detailed,
            "config": self.config,
            "noise": self.noise,
        }

    @property
    def spec_hash(self) -> str:
        """Stable hash identifying the sweep's parameter set."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")
        ).hexdigest()

    def mapping_seed(self, k: int) -> int:
        """The k-th transpilation seed (the paper's 50-seed protocol)."""
        return self.base_seed + 977 * k


@dataclass
class SweepPlan:
    """A planned sweep: the job graph plus cell → fidelity-job wiring."""

    graph: JobGraph
    cells: dict  # (topology, benchmark, engine) -> fidelity job key


@dataclass
class SweepResult:
    """What :func:`run_sweep` produced."""

    cells: dict  # (topology, benchmark, engine) -> samples/mean/min/max
    stats: RunStats
    manifest: dict

    @property
    def rows(self) -> list:
        """JSONL-ready result rows in plan order."""
        return [
            cell_row(cell_id, cell) for cell_id, cell in self.cells.items()
        ]


def cell_summary(samples: list) -> dict:
    """A fidelity cell: its samples with their mean, minimum and maximum."""
    return {
        "mean": sum(samples) / len(samples),
        "minimum": min(samples),
        "maximum": max(samples),
        "samples": samples,
    }


def cell_row(cell_id: tuple, cell: dict) -> dict:
    """The ``results.jsonl`` row of a :func:`cell_summary` cell."""
    topology, benchmark, engine = cell_id
    return {
        "topology": topology,
        "benchmark": benchmark,
        "engine": engine,
        "mean": cell["mean"],
        "minimum": cell["minimum"],
        "maximum": cell["maximum"],
        "num_samples": len(cell["samples"]),
        "samples": cell["samples"],
    }


def add_layout_jobs(
    graph: JobGraph,
    topology: str,
    engines: Iterable[str],
    config: dict,
    detailed: bool,
) -> dict:
    """Add one topology's gp → lg → dp jobs to ``graph``.

    One ``gp`` job, one ``lg`` job per engine on top of it, and — when
    ``detailed`` — a ``dp`` job on top of qGDP's ``lg`` (the paper runs
    qGDP-DP on qGDP-LG only).  Returns ``{engine: [lg]}`` or
    ``{engine: [lg, dp]}``; the last job of each chain is the engine's
    final layout.  Every planner builds its layout jobs here, so
    fidelity sweeps and ``repro tables`` runs over one cache share their
    gp/lg/dp artifacts.
    """
    gp = graph.add(
        Job.create(
            "gp",
            {"topology": topology, "config": config, "seed": config["seed"]},
        )
    )
    chains = {}
    for engine in engines:
        params = {"topology": topology, "engine": engine, "config": config}
        lg = graph.add(Job.create("lg", params, deps=(gp.key,)))
        chains[engine] = [lg]
        if detailed and engine == "qgdp":
            chains[engine].append(
                graph.add(Job.create("dp", params, deps=(lg.key,)))
            )
    return chains


def analysis_job(layout: Job) -> Job:
    """The ``analyze`` job of a layout job, as every planner plans it."""
    return Job.create("analyze", layout.params, deps=(layout.key,))


def plan_sweep(spec: SweepSpec) -> SweepPlan:
    """Expand a spec into its content-addressed job graph."""
    graph = JobGraph()
    cells = {}
    seeds = [spec.mapping_seed(k) for k in range(spec.num_seeds)]
    widths = {name: get_benchmark(name).num_qubits for name in spec.benchmarks}
    for topo_name in spec.topologies:
        topology = get_topology(topo_name)
        chains = add_layout_jobs(
            graph, topo_name, spec.engines, spec.config, spec.detailed
        )

        # Transpilations are engine-independent: one job per benchmark
        # that fits the device, covering every mapping seed, shared by
        # every engine's cell.
        transpile_keys = {}
        for bench_name in spec.benchmarks:
            if widths[bench_name] > topology.num_qubits:
                continue
            transpile_keys[bench_name] = graph.add(
                Job.create(
                    "transpile",
                    {
                        "topology": topo_name,
                        "benchmark": bench_name,
                        "seeds": seeds,
                    },
                )
            ).key

        for engine_name, chain in chains.items():
            analysis = graph.add(analysis_job(chain[-1]))
            for bench_name, transpile_key in transpile_keys.items():
                cell_job = graph.add(
                    Job.create(
                        "fidelity",
                        {
                            "topology": topo_name,
                            "benchmark": bench_name,
                            "engine": engine_name,
                            "config": spec.config,
                            "noise": spec.noise,
                        },
                        deps=(analysis.key, transpile_key),
                    )
                )
                cells[(topo_name, bench_name, engine_name)] = cell_job.key
    return SweepPlan(graph=graph, cells=cells)


def _parse_shard(shard: Optional[tuple]) -> Optional[tuple]:
    """Normalize a shard selector to ``(index, count)`` (1-based index)."""
    if shard is None:
        return None
    index, count = shard
    if count < 1 or not (1 <= index <= count):
        raise ValueError(f"shard must satisfy 1 <= i <= n, got {index}/{count}")
    return (index, count)


def run_sweep(
    spec: SweepSpec,
    cache_dir: Optional[str] = None,
    workers: int = 0,
    resume: bool = False,
    shard: Optional[tuple] = None,
    progress: Optional[Callable] = None,
    store: Optional[ArtifactStore] = None,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    cache_url: Optional[str] = None,
) -> SweepResult:
    """Plan and execute a sweep; returns cells, stats and the manifest.

    Results are **bit-identical** regardless of ``workers``, caching or
    scheduling — see ``docs/orchestration.md`` — and the returned
    :class:`SweepResult` carries the fidelity cells (plan order), the
    :class:`~repro.orchestration.executor.RunStats` and the run manifest
    (including the per-job ledger ``repro diff`` consumes).

    ``cache_dir`` enables the disk artifact store and ``cache_url``
    selects an alternative backend by URL (``dir:PATH``,
    ``sqlite:PATH``, ``http://host:port`` — an HTTP URL combined with a
    ``cache_dir`` tiers the remote behind a local fast layer; see
    ``docs/storage.md``); both are ignored when an explicit ``store``
    is given.  ``resume=True`` reuses any artifact already present
    instead of recomputing it.  ``workers <= 1`` runs
    serially in-process (the debugging mode); larger values use a
    dependency-aware process pool.  ``shard=(i, n)`` keeps the i-th of n
    deterministic cell slices (1-based).  ``retries`` re-runs flaky jobs
    and ``timeout_s`` bounds each job attempt's wall clock in a
    terminatable child process (see :func:`repro.orchestration.executor
    .run_jobs`); attempts that failed — including timeouts, logged with
    ``error_type: "JobTimeout"`` — but recovered land in the manifest's
    ``jobs.failures`` log, while a job that exhausts its retries aborts
    the sweep with :class:`~repro.orchestration.executor.JobFailure` —
    no manifest is written, and the accumulated failure log rides on the
    exception's ``failures`` attribute instead.
    """
    shard = _parse_shard(shard)
    plan = plan_sweep(spec)
    graph, cell_keys = plan.graph, plan.cells
    if shard is not None:
        index, count = shard
        selected = [
            cell
            for pos, cell in enumerate(cell_keys)
            if pos % count == index - 1
        ]
        cell_keys = {cell: cell_keys[cell] for cell in selected}
        graph = graph.restricted_to(cell_keys.values())

    owns_store = store is None
    if owns_store:
        store = resolve_store(cache_url=cache_url, cache_dir=cache_dir)
    try:
        results, stats = run_jobs(
            graph,
            store,
            workers=workers,
            resume=resume,
            progress=progress,
            retries=retries,
            timeout_s=timeout_s,
            outputs=cell_keys.values(),
        )
    finally:
        # A store we opened is ours to close (sqlite connections, etc.);
        # a caller-supplied store stays open for the caller's next run.
        if owns_store:
            store.close()

    cells = {}
    for cell_id, key in cell_keys.items():
        samples = results[key]["samples"]
        if samples:
            cells[cell_id] = cell_summary(samples)

    run_id = spec.spec_hash[:12]
    if shard is not None:
        run_id += f"-shard{shard[0]}of{shard[1]}"
    manifest = {
        "run_id": run_id,
        "spec": spec.to_dict(),
        "shard": None if shard is None else {"index": shard[0], "count": shard[1]},
        "workers": workers,
        "resume": resume,
        "retries": retries,
        "timeout_s": timeout_s,
        "jobs": stats.to_dict(),
        "num_cells": len(cells),
    }
    return SweepResult(cells=cells, stats=stats, manifest=manifest)


def run_fleet_sweep(
    spec: SweepSpec,
    coordinator: Union[str, FleetClient],
    store: Optional[ArtifactStore] = None,
    cache_dir: Optional[str] = None,
    cache_url: Optional[str] = None,
    poll_s: float = 1.0,
    progress: Optional[Callable] = None,
    sleep=time.sleep,
) -> SweepResult:
    """Run a sweep across a worker fleet; returns the same
    :class:`SweepResult` a local :func:`run_sweep` would.

    Plans the spec, enqueues the serialized DAG on the ``coordinator``
    (a ``repro serve-cache --fleet`` URL or a prepared
    :class:`~repro.orchestration.coordinator.FleetClient` — enqueueing
    is idempotent, so re-submitting a half-finished sweep just resumes
    it), then polls ``/v1/fleet/status`` until no job is outstanding.
    The actual execution happens in ``repro worker`` processes pulling
    from the same coordinator; because runners are pure functions of
    (params, canonical dependency payloads), the assembled cells — and
    therefore ``results.jsonl`` — are bit-identical to a serial
    uncached run, whatever the fleet did in between.

    ``store`` (or ``cache_url``/``cache_dir``, defaulting to the
    coordinator's own artifact endpoints) is where the fidelity
    payloads are read back from.  ``progress`` is called with each
    status document while watching.

    The returned manifest is ``repro diff``-compatible: its
    ``jobs.entries`` ledger is the coordinator's completion ledger
    restricted to this sweep's jobs and normalized to plan order, its
    ``jobs.failures`` carries every failed attempt *and expired lease*,
    and a ``fleet`` block records the coordinator URL and the workers
    that reported in.  If any job exhausted its attempt budget the
    sweep raises :class:`~repro.orchestration.coordinator.FleetError`
    with that failure ledger attached.
    """
    client = (
        FleetClient(coordinator) if isinstance(coordinator, str) else coordinator
    )
    t0 = time.perf_counter()
    plan = plan_sweep(spec)
    plan_keys = {job.key for job in plan.graph.ordered()}
    client.enqueue(serialize_graph(plan.graph))

    while True:
        status = client.status()
        if progress is not None:
            progress(status)
        if status["outstanding"] == 0:
            break
        sleep(poll_s)

    entries = [e for e in status["entries"] if e["key"] in plan_keys]
    failures = [f for f in status["failures"] if f["key"] in plan_keys]
    done_keys = {entry["key"] for entry in entries}
    lost = [job for job in plan.graph.ordered() if job.key not in done_keys]
    if lost:
        raise FleetError(
            f"fleet sweep failed: {len(lost)} of {len(plan_keys)} jobs "
            f"failed permanently (first: {lost[0].kind} "
            f"{lost[0].key[:12]}); see the attached failure ledger",
            failures=failures,
        )

    stats = RunStats(total=len(plan_keys))
    order = {job.key: i for i, job in enumerate(plan.graph.ordered())}
    for entry in sorted(entries, key=lambda e: order[e["key"]]):
        stats.record_row(entry)
    stats.failures = failures

    owns_store = store is None
    if owns_store:
        store = resolve_store(
            cache_url=cache_url or client.base_url, cache_dir=cache_dir
        )
    cells = {}
    try:
        for cell_id, key in plan.cells.items():
            payload = store.get("fidelity", key)
            if payload is None:
                raise FleetError(
                    f"fleet store {store.describe()} is missing the "
                    f"fidelity payload for completed job {key[:12]} — "
                    "did the workers write to a different store?",
                    failures=failures,
                )
            samples = payload["samples"]
            if samples:
                cells[cell_id] = cell_summary(samples)
    finally:
        if owns_store:
            store.close()
    stats.wall_s = time.perf_counter() - t0

    manifest = {
        "run_id": spec.spec_hash[:12] + "-fleet",
        "spec": spec.to_dict(),
        "shard": None,
        "workers": 0,
        "resume": True,
        "retries": None,
        "timeout_s": None,
        "fleet": {
            "coordinator": client.base_url,
            "lease_ttl_s": status["lease_ttl_s"],
            "max_attempts": status["max_attempts"],
            "workers": status["workers"],
        },
        "jobs": stats.to_dict(),
        "num_cells": len(cells),
    }
    return SweepResult(cells=cells, stats=stats, manifest=manifest)
