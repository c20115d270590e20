"""The benchmark's workloads: what one op runs, and how its output is checked.

Each workload is one closed-loop client: the next op starts only after
the previous one finished.  ``--seed n`` shifts the GP seed
(``QGDPConfig.seed``) by ``n``; seed 0 is the paper default, the only
seed at which the committed golden baselines and this directory's
``expected.json`` apply.  The 50 mapping seeds of the Eq. 7 fidelity
evaluation stay at the paper's default ``base_seed``: they sample the
evaluation rather than the placement input, and varying them would
triple the seed-to-seed spread of ``qgdp_fidelity_gmean``.

* ``grid24_flow`` -- ``QGDPFlow(grid_topology(24)).run(engine="qgdp",
  detailed=True)``: 576 qubits, the scaling regime; GP and the two
  ``layout_metrics`` calls dominate and DP flags no window.
* ``paper_sweep_cold`` -- ``run_sweep`` of the paper protocol (6
  topologies x 7 benchmarks x 5 engines x 50 mapping seeds, detailed)
  into a fresh directory store: small real devices, the Abacus and
  Tetris legalizers, accepted DP windows, transpile, fidelity and store
  writes.  It runs serially: with a process pool the result rows differ
  from run to run (see :func:`clear_path_memo`; pool workers cannot be
  reset between jobs), so a pool run has no checkable output.
* ``paper_sweep_warm`` -- the same spec with ``resume=True`` against a
  cache filled during setup: planning, key hashing, ``prefetch`` and
  ``get``, zero compute.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path

import repro.compiler.mapping

from repro.circuits import PAPER_BENCHMARKS, get_benchmark
from repro.compiler.transpiler import transpile
from repro.core.config import QGDPConfig
from repro.core.pipeline import QGDPFlow
from repro.core.result import decode_snapshot
from repro.crosstalk.fidelity import program_fidelity
from repro.crosstalk.parameters import DEFAULT_NOISE
from repro.evaluation.fingerprint import positions_digest
from repro.frequency.hotspots import hotspot_pairs
from repro.legalization.engines import PAPER_ENGINE_ORDER
from repro.metrics.legality import check_legality, qubit_spacing_violations
from repro.orchestration.stages import config_from_dict, config_to_dict
from repro.orchestration.store import ArtifactStore
from repro.orchestration.sweep import SweepSpec, plan_sweep, run_sweep
from repro.placement.builder import build_layout
from repro.routing.crossings import count_crossings
from repro.topologies import PAPER_TOPOLOGIES, get_topology
from repro.topologies.grid import grid_topology

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
GOLDEN_DIR = BENCH_DIR.parent / "tests" / "golden" / "baselines"

DEFAULT_GP_SEED = QGDPConfig().seed
NUM_MAPPING_SEEDS = 50
MAPPING_SEEDS = [SweepSpec((), (), ()).mapping_seed(k) for k in range(NUM_MAPPING_SEEDS)]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def rows_digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def gmean(values: list) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def qgdp_fidelity_gmean(rows: list) -> float:
    """Geometric mean over the qGDP cells of their mean Eq. 7 fidelity."""
    return gmean([row["mean"] for row in rows if row["engine"] == "qgdp"])


def clear_path_memo() -> None:
    """Empty the compiler's process-wide shortest-path memo.

    A sweep run from the command line starts in a fresh process with the
    memo empty.  The memo is keyed by ``id(graph)`` and the ids of freed
    topology graphs are reused, so entries left by an earlier sweep in
    the same process can change a later sweep's mappings; it also grows
    by about 23k paths per paper sweep.
    """
    getattr(repro.compiler.mapping, "_PATH_CACHE", {}).clear()


def _warm_up(config: QGDPConfig) -> None:
    """A tiny flow so lazy imports and solver start-up land in setup."""
    QGDPFlow(grid_topology(3), config).run(engine="qgdp", detailed=True)


class FlowWorkload:
    """``grid24_flow``: one op is the full in-process flow on a grid."""

    def __init__(self, seed: int, side: int = 24) -> None:
        self.seed = seed
        self.side = side
        self.config = QGDPConfig(seed=DEFAULT_GP_SEED + seed)
        self.digest = None
        self.expected_digest = None
        self.flow = None

    def setup(self, scratch: Path) -> None:
        if self.seed == 0 and self.side == 24:
            self.expected_digest = load_expected()["grid24_flow"]["positions_sha256"]
        _warm_up(self.config)

    def check_setup(self) -> list:
        return []

    def op(self):
        self.flow = QGDPFlow(grid_topology(self.side), self.config)
        return self.flow.run(engine="qgdp", detailed=True)

    def release(self, result) -> None:
        pass

    def check(self, result) -> list:
        failures = []
        final = result.final
        metrics = final.metrics
        if final.stage != "dp":
            failures.append(f"final stage is {final.stage}, not dp")
        for key in ("legality_violations", "spacing_violations"):
            if metrics[key] != 0:
                failures.append(f"{key} = {metrics[key]}")
        if metrics["unified"] != metrics["total_resonators"]:
            failures.append(
                f"unified {metrics['unified']} != total {metrics['total_resonators']}"
            )
        digest = positions_digest(final.positions)
        if self.digest is None:
            self.digest = digest
            print(f"positions_digest {digest}", flush=True)
        elif digest != self.digest:
            failures.append(f"positions digest {digest} differs from first op")
        if self.expected_digest is not None and digest != self.expected_digest:
            failures.append(f"positions digest {digest} != expected.json")
        return failures

    def cache_hit_ratio(self, result) -> float:
        return 0.0

    def quality(self, result) -> float:
        """Eq. 7 fidelity gmean of the paper benchmarks on the last layout.

        Each benchmark is mapped with the sweep protocol's 50 mapping
        seeds; the layout analysis (spacing violations, hotspots,
        crossings) is the one a sweep's ``analyze`` job computes.
        """
        netlist, bins, config = self.flow.netlist, self.flow.bins, self.config
        topology = self.flow.topology
        violations = qubit_spacing_violations(netlist, config.min_qubit_spacing)
        hotspots = hotspot_pairs(netlist, config.reach, config.delta_c)
        crossings = count_crossings(netlist, bins)
        means = []
        for name in PAPER_BENCHMARKS:
            circuit = get_benchmark(name)
            samples = [
                program_fidelity(
                    netlist,
                    transpile(circuit, topology, seed=seed),
                    crossings,
                    config,
                    DEFAULT_NOISE,
                    hotspots=hotspots,
                    violations=violations,
                ).fidelity
                for seed in MAPPING_SEEDS
            ]
            means.append(sum(samples) / len(samples))
        return gmean(means)

class CheckingStore(ArtifactStore):
    """A directory store that keeps the layout payloads it is handed."""

    def __init__(self, root: str) -> None:
        super().__init__(root)
        self.layouts = {}  # job key -> encoded positions

    def put(self, kind: str, key: str, payload: dict) -> dict:
        if kind in ("lg", "dp"):
            self.layouts[key] = payload["positions"]
        return super().put(kind, key, payload)


class TracedStore(CheckingStore):
    """A :class:`CheckingStore` that records store spans for a tracer."""

    def __init__(self, root: str, tracer) -> None:
        super().__init__(root)
        self.tracer = tracer
        put_text = self.backend.put_text

        def counting_put_text(kind: str, key: str, text: str) -> None:
            # Called from ArtifactStore.put, inside the orch.store.put span.
            if tracer.stack:
                tracer.stack[-1].counts["bytes"] = len(text)
            put_text(kind, key, text)

        self.backend.put_text = counting_put_text

    def get(self, kind: str, key: str):
        with self.tracer.span("orch.store.get"):
            return super().get(kind, key)

    def prefetch(self, pairs):
        with self.tracer.span("orch.store.prefetch"):
            return super().prefetch(pairs)

    def put(self, kind: str, key: str, payload: dict) -> dict:
        with self.tracer.span("orch.store.put"):
            return super().put(kind, key, payload)


def paper_spec(
    seed: int,
    topologies=PAPER_TOPOLOGIES,
    benchmarks=PAPER_BENCHMARKS,
    engines=PAPER_ENGINE_ORDER,
    num_seeds: int = NUM_MAPPING_SEEDS,
) -> SweepSpec:
    config = QGDPConfig(seed=DEFAULT_GP_SEED + seed)
    return SweepSpec(
        topologies,
        benchmarks,
        engines,
        num_seeds=num_seeds,
        detailed=True,
        config=config_to_dict(config),
    )


class SweepWorkload:
    """``paper_sweep_cold`` / ``paper_sweep_warm``: one op is ``run_sweep``.

    ``spec`` defaults to the full paper protocol; a smaller spec is for
    the benchmark's own tests, and skips the ``expected.json`` check.
    """

    def __init__(self, seed: int, warm: bool, spec: SweepSpec = None) -> None:
        self.seed = seed
        self.warm = warm
        self.spec = spec or paper_spec(seed)
        self.full = spec is None
        self.tracer = None  # set by the traced run: stores record spans
        self.scratch = None
        self.cache_dir = None
        self.jobs = {}
        self.golden = {}
        self.expected_rows = None
        self.fill = None  # (result, store) of the cache fill
        self.rows_text = None
        self.layout_digests = None

    def setup(self, scratch: Path) -> None:
        self.scratch = scratch
        self.jobs = {job.key: job for job in plan_sweep(self.spec).graph.ordered()}
        if self.seed == 0:
            for topology in self.spec.topologies:
                path = GOLDEN_DIR / f"{topology}.json"
                if path.exists():
                    self.golden[topology] = json.loads(path.read_text())
            if self.full:
                self.expected_rows = load_expected()["paper_sweep"]["rows_sha256"]
        _warm_up(QGDPConfig(seed=DEFAULT_GP_SEED + self.seed))
        clear_path_memo()
        if self.warm:
            self.cache_dir = tempfile.mkdtemp(prefix="warm-", dir=scratch)
            store = CheckingStore(self.cache_dir)
            self.fill = run_sweep(self.spec, store=store, workers=0), store
            self.rows_text = json.dumps(self.fill[0].rows)

    def check_setup(self) -> list:
        """The cache fill's checks, the cold op's; outside the timed set-up."""
        if self.fill is None:
            return []
        failures = self._check_cold(*self.fill)
        self.fill[1].close()
        self.fill = None
        return failures

    def _store(self, root: str) -> CheckingStore:
        if self.tracer is None:
            return CheckingStore(root)
        return TracedStore(root, self.tracer)

    def op(self):
        if self.warm:
            store = self._store(self.cache_dir)
            return run_sweep(self.spec, store=store, resume=True, workers=0), store
        store = self._store(tempfile.mkdtemp(prefix="cold-", dir=self.scratch))
        return run_sweep(self.spec, store=store, workers=0), store

    def release(self, output) -> None:
        _result, store = output
        store.close()
        if not self.warm:
            shutil.rmtree(store.root)
            clear_path_memo()

    def check(self, output) -> list:
        result, store = output
        if not self.warm:
            return self._check_cold(result, store)
        failures = []
        if result.stats.computed != 0:
            failures.append(f"warm run computed {result.stats.computed} jobs")
        if json.dumps(result.rows) != self.rows_text:
            failures.append("warm rows differ from the cold rows")
        return failures

    def _check_cold(self, result, store: CheckingStore) -> list:
        failures = []
        stats = result.stats
        if stats.computed != stats.total or stats.total != len(self.jobs):
            failures.append(
                f"computed {stats.computed} of {stats.total} jobs, planned {len(self.jobs)}"
            )
        rows = result.rows
        short = [r for r in rows if r["num_samples"] != self.spec.num_seeds]
        if short or not rows:
            failures.append(f"{len(short)} of {len(rows)} cells lack {self.spec.num_seeds} samples")
        digest = rows_digest(rows)
        if self.expected_rows is not None and digest != self.expected_rows:
            failures.append(f"rows digest {digest} != expected.json")
        layouts = {}
        for key, encoded in store.layouts.items():
            job = self.jobs[key]
            topology = job.params["topology"]
            layout_digest = positions_digest(decode_snapshot(encoded))
            layouts[(job.kind, topology, job.params["engine"])] = layout_digest
            golden = self.golden.get(topology)
            if job.kind == "dp" and golden and layout_digest != golden["positions_sha256"]:
                failures.append(f"dp layout of {topology} != golden baseline")
        if self.layout_digests is None:
            failures += self._check_legality(store)
            self.layout_digests = (layouts, digest)
        elif (layouts, digest) != self.layout_digests:
            failures.append("layouts or rows differ from the first op")
        return failures

    def _check_legality(self, store: CheckingStore) -> list:
        """Overlap/border legality of every layout, and qGDP's spacing."""
        failures = []
        for key, encoded in store.layouts.items():
            job = self.jobs[key]
            config = config_from_dict(job.params["config"])
            netlist, grid = build_layout(get_topology(job.params["topology"]), config)
            netlist.restore(decode_snapshot(encoded))
            where = f"{job.kind} {job.params['topology']}/{job.params['engine']}"
            if check_legality(netlist, grid):
                failures.append(f"{where} layout is illegal")
            if job.params["engine"] == "qgdp" and qubit_spacing_violations(
                netlist, config.min_qubit_spacing
            ):
                failures.append(f"{where} layout violates qubit spacing")
        return failures

    def cache_hit_ratio(self, output) -> float:
        stats = output[0].stats
        return stats.cached / stats.total

    def quality(self, output) -> float:
        return qgdp_fidelity_gmean(output[0].rows)


def make_workload(name: str, seed: int):
    if name == "grid24_flow":
        return FlowWorkload(seed)
    if name == "paper_sweep_cold":
        return SweepWorkload(seed, warm=False)
    if name == "paper_sweep_warm":
        return SweepWorkload(seed, warm=True)
    raise KeyError(name)

