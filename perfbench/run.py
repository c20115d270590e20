"""End-to-end placement benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid24_flow --seed 0 --seconds 12 --trace 0

Workloads are described in ``workloads.py``.  With ``--trace 0`` the run
times closed-loop ops for ``--seconds`` and reports the end-to-end
metrics.  Their times are rescaled to a reference host speed by the probe
in ``probe.py``, which samples how fast the shared host runs the process
while each op and each set-up is timed:

* ``setup_s`` -- the imports plus the median of ``SETUP_REPS`` set-ups
  of the workload (for ``paper_sweep_warm`` each one fills a cache);
* ``op_p50_ref_s`` -- the median op time;
* ``peak_rss_mb`` -- the peak resident set over the set-ups and the
  first ``MIN_OPS`` ops;
* ``qgdp_fidelity_gmean`` -- the placement quality of the last output.

The wall-clock medians are printed beside them.  With ``--trace 1`` the
run spends half of ``--seconds`` on untraced ops and half on ops traced
at every layer boundary (``tracing.py``), reports the per-layer metrics,
and writes the span tree to ``.perfbench_out/``.  Every op's output is
checked; an op that raises or fails a check counts as failed.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

BLAS/OpenMP thread pools are pinned to one thread here, before numpy is
imported, so library threads do not compete with the measured process,
and the process is pinned to one CPU, the one the probe samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

START = time.perf_counter()

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("grid24_flow", "paper_sweep_cold", "paper_sweep_warm")
#: Set-ups per run; ``setup_s`` takes their median.
SETUP_REPS = 3
#: Ops per loop at least, however long they take: a median of one op
#: moves with every stall.  ``peak_rss_mb`` is read after this many ops,
#: as it creeps up with every op and the op count varies with host speed.
MIN_OPS = 2
JOB_KINDS = ("gp", "lg", "dp", "transpile", "analyze", "fidelity")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ref_s": "s",
    "peak_rss_mb": "MB",
    "qgdp_fidelity_gmean": "ratio",
}

#: Spans whose inclusive seconds per op are reported as ``<span>.s``.
TIMED_SPANS = (
    "build",
    "gp",
    "lg",
    "lg.qubit",
    "lg.resonator.integration",
    "lg.resonator.abacus",
    "lg.resonator.tetris",
    "dp",
    "dp.qubit_hotspot_pairs",
    "metrics.layout",
    "metrics.hotspots",
    "metrics.crossings",
    "metrics.legality",
    "metrics.spacing",
    "metrics.integration",
    "compiler.transpile",
    "crosstalk.fidelity",
    "orch.plan",
    "orch.executor",
    "orch.store.get",
    "orch.store.put",
    "orch.store.prefetch",
    *(f"orch.job.{kind}" for kind in JOB_KINDS),
)

#: Per-layer calls per op: metric -> span name.
LAYER_CALLS = {
    "build.calls": "build",
    "lg.qubit.lp_calls": "lg.qubit.lp",
    "metrics.layout.calls": "metrics.layout",
    "compiler.transpile.calls": "compiler.transpile",
    "crosstalk.fidelity.calls": "crosstalk.fidelity",
    "orch.store.get.count": "orch.store.get",
    "orch.store.put.count": "orch.store.put",
    "orch.store.prefetch.count": "orch.store.prefetch",
    **{f"orch.job.{kind}.count": f"orch.job.{kind}" for kind in JOB_KINDS},
}

#: Per-layer counters summed from span annotations, per op.
LAYER_COUNTS = {
    "lg.qubit.attempts": "lg.qubit.attempts",
    "dp.flagged": "dp.flagged",
    "dp.accepted": "dp.accepted",
    "dp.reverted": "dp.reverted",
    "orch.store.put_bytes": "orch.store.put.bytes",
}


def per_layer_units() -> dict:
    """Every per-layer metric (``--trace 1``): name -> (unit, better)."""
    units = {f"{span}.s": ("s", "lower") for span in TIMED_SPANS}
    units.update({name: ("count", "lower") for name in LAYER_CALLS})
    units.update({name: ("count", "lower") for name in LAYER_COUNTS})
    units["orch.store.put_bytes"] = ("bytes", "lower")
    units["dp.accepted"] = ("count", "higher")
    units.update(
        {
            "dp.accept_ratio": ("ratio", "higher"),
            "orch.cache.hit_ratio": ("ratio", "higher"),
            "orch.overhead.s": ("s", "lower"),
            "trace.op_p50_s": ("s", "lower"),
            "trace.overhead_s": ("s", "lower"),
            "trace.unattributed_share": ("ratio", "lower"),
        }
    )
    return units


def machine_block() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_ENV},
    }


def peak_rss_mb() -> float:
    """Max resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Loop:
    """Closed-loop ops for a time budget; each output checked, then freed."""

    def __init__(self) -> None:
        self.durations = []  # wall seconds
        self.scaled = []  # the same at the reference host speed
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.last = None  # the last output that passed its checks
        self.peak_rss_mb = None  # after MIN_OPS ops

    def run(self, workload, seconds: float, tracer=None, probe=None) -> "Loop":
        start = time.perf_counter()
        while self.attempted < MIN_OPS or time.perf_counter() - start < seconds:
            self.attempted += 1
            gc.collect()  # start every op with the same collector state
            scaled = None
            try:
                if probe is not None:
                    with probe.window() as window:
                        output = workload.op()
                    elapsed, scaled = window.wall, window.scaled
                elif tracer is None:
                    t0 = time.perf_counter()
                    output = workload.op()
                    elapsed = time.perf_counter() - t0
                else:
                    with tracer.op():
                        t0 = time.perf_counter()
                        output = workload.op()
                        elapsed = time.perf_counter() - t0
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                self.failed += 1
                self.messages.append(traceback.format_exc())
                continue
            try:
                failures = workload.check(output)
            finally:
                workload.release(output)
            if self.attempted == MIN_OPS:
                self.peak_rss_mb = peak_rss_mb()
            if failures:
                self.failed += 1
                self.messages.extend(failures)
                continue
            self.durations.append(elapsed)
            if scaled is not None:
                self.scaled.append(scaled)
            self.last = output
        return self

    @property
    def p50(self):
        return statistics.median(self.durations) if self.durations else None

    @property
    def scaled_p50(self):
        return statistics.median(self.scaled) if self.scaled else None


def layer_metrics(totals, untraced: Loop, traced: Loop, workload) -> dict:
    """The per-layer metric values of one traced run."""
    values = {f"{span}.s": totals.seconds_per_op(span) for span in TIMED_SPANS}
    values.update({name: totals.calls_per_op(span) for name, span in LAYER_CALLS.items()})
    values.update({name: totals.count_per_op(key) for name, key in LAYER_COUNTS.items()})
    flagged = totals.counts["dp.flagged"]
    values["dp.accept_ratio"] = totals.counts["dp.accepted"] / flagged if flagged else 0.0
    values["orch.cache.hit_ratio"] = (
        workload.cache_hit_ratio(traced.last) if traced.last is not None else 0.0
    )
    # Jobs and store calls run inside the executor span; the overhead is
    # everything in the op that is neither planning nor either of those.
    accounted = ["orch.plan", "orch.store.get", "orch.store.put", "orch.store.prefetch"]
    accounted += [f"orch.job.{kind}" for kind in JOB_KINDS]
    if totals.calls["orch.plan"]:
        values["orch.overhead.s"] = totals.wall_ns / 1e9 / totals.num_ops - sum(
            totals.seconds_per_op(span) for span in accounted
        )
    else:
        values["orch.overhead.s"] = 0.0
    values["trace.op_p50_s"] = traced.p50
    values["trace.overhead_s"] = (
        traced.p50 - untraced.p50 if traced.durations and untraced.durations else None
    )
    values["trace.unattributed_share"] = totals.unattributed_share
    return values


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        shown = "none" if value is None else f"{value:.6g}"
        print(f"{name:<32} {shown} {units[name]}")


def measure(workload, seconds: float, trace: bool, setup_s: float, probe) -> tuple:
    """Run one workload's ops; returns ``(loops, metrics, units, tracer)``.

    Untraced ops are timed through ``probe``, a started :class:`HostProbe`;
    the traced run stops it first, so that its spans hold no probe time.
    """
    from tracing import LayerTotals, Tracer

    if not trace:
        loop = Loop().run(workload, seconds, probe=probe)
        metrics = {
            "setup_s": setup_s,
            "op_p50_ref_s": loop.scaled_p50,
            "peak_rss_mb": loop.peak_rss_mb,
            "qgdp_fidelity_gmean": (
                workload.quality(loop.last) if loop.last is not None else None
            ),
        }
        print(f"op_wall_p50_s {loop.p50} s over {len(loop.durations)} ops")
        print(f"host_speed {probe.speed():.6g} x reference")
        if len(loop.durations) >= 100:
            print(f"op_p90_ref_s {statistics.quantiles(loop.scaled, n=10)[-1]:.6g} s")
        return [loop], metrics, END_TO_END, None
    probe.stop()
    untraced = Loop().run(workload, seconds / 2)
    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    try:
        traced = Loop().run(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
        workload.tracer = None
    metrics = layer_metrics(LayerTotals(tracer.ops), untraced, traced, workload)
    units = {name: unit for name, (unit, _) in per_layer_units().items()}
    return [untraced, traced], metrics, units, tracer


def write_trace_report(path: Path, machine: dict, tracer, metrics: dict) -> None:
    """The span tree of the traced ops, printed and written to ``path``."""
    from tracing import span_tree_lines

    lines = (
        [f"machine {json.dumps(machine, sort_keys=True)}"]
        + span_tree_lines(tracer.ops)
        + [
            f"unattributed_share {metrics['trace.unattributed_share']}",
            f"tracing_overhead_s {metrics['trace.overhead_s']}",
        ]
    )
    path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))


def main(argv=None) -> int:
    # Before numpy is imported, so its BLAS sizes its pool from these.
    for var in THREAD_ENV:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from probe import HostProbe

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    probe = HostProbe(scratch / "probe.bin")
    try:
        probe.start()
        with probe.window() as imports:
            from workloads import make_workload
        setups = []
        for _ in range(SETUP_REPS):
            workload = make_workload(args.workload, args.seed)
            with probe.window() as window:
                workload.setup(Path(tempfile.mkdtemp(prefix="setup-", dir=scratch)))
            setups.append(window.scaled)
        failures = workload.check_setup()
        if failures:
            raise RuntimeError("set-up failed its checks: " + "; ".join(failures))
        setup_s = imports.scaled + statistics.median(setups)
        machine = machine_block()
        print(f"machine {json.dumps(machine, sort_keys=True)}")
        print(f"setup_wall_s {time.perf_counter() - START:.6g} s for {SETUP_REPS} set-ups")
        loops, metrics, units, tracer = measure(
            workload, args.seconds, args.trace == 1, setup_s, probe
        )
    finally:
        probe.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    if tracer is not None:
        report = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.txt"
        write_trace_report(report, machine, tracer, metrics)

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for message in [m for loop in loops for m in loop.messages][:10]:
        print(f"FAILED: {message}", file=sys.stderr)
    for loop in loops:
        print(f"op_durations_s {json.dumps([round(d, 4) for d in loop.durations])}")
    print(f"attempted {attempted} failed {failed}")
    print(f"fail_ratio {failed / attempted:.6g} ratio")
    print_metrics(metrics, units)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
