"""Stage runners: the functions that execute one job of each kind.

Every runner is a pure function of ``(params, dep_payloads)`` returning a
JSON-safe payload, and every layout runner rebuilds its working state
(netlist, grid, occupancy) from the topology + config in its params plus
position snapshots from upstream payloads.  That makes jobs
location-transparent:
the same runner produces bit-identical output whether it executes in the
parent process (serial executor), a worker process (process pool), or is
skipped entirely because the artifact store already holds its payload.
The gp, lg and dp runners each call one stage method of
:class:`~repro.core.pipeline.QGDPFlow`, the code an in-process
:meth:`QGDPFlow.run` chains, so a job chain and an in-process run agree.
A ``transpile`` job maps one benchmark onto one topology once per
mapping seed of the sweep, all on one topology build, and a ``fidelity``
job folds its per-seed stats in seed order.

``execute_job`` is the single dispatch point and is importable at module
level so :class:`concurrent.futures.ProcessPoolExecutor` can pickle it.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional

from repro.circuits.registry import get_benchmark
from repro.compiler.scheduling import Schedule
from repro.compiler.transpiler import TranspiledCircuit, transpile
from repro.core.config import QGDPConfig
from repro.core.pipeline import QGDPFlow
from repro.core.result import StageReport, decode_snapshot, encode_snapshot
from repro.crosstalk.fidelity import layout_fidelity
from repro.crosstalk.parameters import NoiseParameters
from repro.legalization.bins import BinGrid
from repro.metrics.report import analyze_layout
from repro.topologies.registry import get_topology

# perfbench/tracing.py's SITES patch these names here and its install()
# fails on a missing one, so they stay importable from this module.
from repro.crosstalk.fidelity import program_fidelity  # noqa: F401
from repro.frequency.hotspots import hotspot_pairs  # noqa: F401
from repro.legalization.engines import run_legalization  # noqa: F401
from repro.metrics.legality import qubit_spacing_violations  # noqa: F401
from repro.metrics.report import layout_metrics  # noqa: F401
from repro.placement.builder import build_layout  # noqa: F401
from repro.routing.crossings import count_crossings  # noqa: F401


# -- config / noise codecs ---------------------------------------------------
def config_to_dict(config: QGDPConfig) -> dict:
    """JSON-safe dict of the code-relevant flow parameters."""
    return asdict(config)


def config_from_dict(data: dict) -> QGDPConfig:
    """Inverse of :func:`config_to_dict` (band lists back to tuples)."""
    data = dict(data)
    data["qubit_bands"] = tuple(data["qubit_bands"])
    data["resonator_bands"] = tuple(data["resonator_bands"])
    return QGDPConfig(**data)


def noise_to_dict(noise: NoiseParameters) -> dict:
    """JSON-safe dict of the Eq. 7 noise constants."""
    return asdict(noise)


def noise_from_dict(data: dict) -> NoiseParameters:
    """Inverse of :func:`noise_to_dict`."""
    return NoiseParameters(**data)


# -- transpile payload codec -------------------------------------------------
def transpile_stats_to_dict(transpiled: TranspiledCircuit) -> dict:
    """The slice of a transpiled circuit the fidelity model consumes.

    Dict insertion order is preserved through JSON, so the reconstructed
    ``gates_1q`` / ``gates_2q`` dicts build their ``active_qubits`` set in
    the same order as the original — keeping the Eq. 7 product order (and
    hence the float result) bit-identical.
    """
    return {
        "name": transpiled.name,
        "topology_name": transpiled.topology_name,
        "gates_1q": {str(q): n for q, n in transpiled.gates_1q.items()},
        "gates_2q": {str(q): n for q, n in transpiled.gates_2q.items()},
        "active_edges": sorted(list(edge) for edge in transpiled.active_edges),
        "duration_ns": transpiled.timing.duration_ns,
        "busy_ns": {str(q): t for q, t in transpiled.timing.busy_ns.items()},
    }


def transpile_stats_from_dict(data: dict) -> TranspiledCircuit:
    """Rebuild a fidelity-sufficient :class:`TranspiledCircuit` stub."""
    return TranspiledCircuit(
        name=data["name"],
        topology_name=data["topology_name"],
        initial_mapping={},
        final_mapping={},
        timing=Schedule(
            duration_ns=data["duration_ns"],
            busy_ns={int(q): t for q, t in data["busy_ns"].items()},
            gates_1q={int(q): n for q, n in data["gates_1q"].items()},
            gates_2q={int(q): n for q, n in data["gates_2q"].items()},
            active_edges={tuple(edge) for edge in data["active_edges"]},
        ),
    )


# -- runners -----------------------------------------------------------------
def _flow(params: dict, positions_payload: Optional[dict] = None) -> QGDPFlow:
    """The job's flow, resumed at an upstream payload's snapshot if given."""
    flow = QGDPFlow(params["topology"], config_from_dict(params["config"]))
    if positions_payload is not None:
        flow.restore(decode_snapshot(positions_payload["positions"]))
    return flow


def _stage_payload(report: StageReport) -> dict:
    return {"positions": encode_snapshot(report.positions), **report.metrics}


def run_gp_job(params: dict, deps: list) -> dict:
    """Global placement of one topology (:meth:`QGDPFlow.place`).

    The GP noise is drawn from the config's seed, so a ``seed`` param
    that differs from it would store a payload its key does not describe.
    """
    if params["seed"] != params["config"]["seed"]:
        raise ValueError(
            f"gp seed {params['seed']} != config seed {params['config']['seed']}"
        )
    report = _flow(params).place()
    return {**_stage_payload(report), "runtime_s": report.runtime_s}


def run_lg_job(params: dict, deps: list) -> dict:
    """Legalize one topology with one engine, from the GP snapshot."""
    return _stage_payload(_flow(params, deps[0]).legalize(params["engine"]))


def run_dp_job(params: dict, deps: list) -> dict:
    """Detailed placement on top of one engine's legalization.

    ``deps[0]`` is the engine's ``lg`` payload.  A legal layout fixes its
    occupancy completely, so :meth:`QGDPFlow.detail` rebuilds the index
    the placer refines from that snapshot.
    """
    report = _flow(params, deps[0]).detail()
    return {**_stage_payload(report), "dp_time_s": report.runtime_s}


def run_transpile_job(params: dict, deps: list) -> dict:
    """Map + route + schedule one benchmark onto one topology, per seed.

    The topology and circuit are built once, so every seed of
    ``params["seeds"]`` shares one coupling graph and its shortest-path
    memo; ``stats`` holds one payload per seed, in seed order.
    """
    topology = get_topology(params["topology"])
    circuit = get_benchmark(params["benchmark"])
    return {
        "stats": [
            transpile_stats_to_dict(transpile(circuit, topology, seed=seed))
            for seed in params["seeds"]
        ]
    }


def run_analyze_job(params: dict, deps: list) -> dict:
    """The one analysis of one layout: its ``LayoutMetrics`` and Eq. 7 rows.

    ``deps[0]`` is the layout payload (LG or DP snapshot); every
    benchmark's ``fidelity`` job and ``repro tables`` read the result.
    """
    flow = _flow(params, deps[0])
    bins = BinGrid.of_layout(flow.netlist, flow.grid)
    metrics, inputs = analyze_layout(flow.netlist, bins, flow.config)
    return {"metrics": asdict(metrics), "fidelity_inputs": inputs}


def run_fidelity_job(params: dict, deps: list) -> dict:
    """Eq. 7 fidelity samples of one (topology, benchmark, engine) cell.

    ``deps[0]`` is the layout's ``analyze`` payload, whose rows carry every
    gap and frequency Eq. 7 reads; ``deps[1]`` is the benchmark's
    ``transpile`` payload, one sample per seed in seed order.  No layout
    is built.
    """
    inputs = deps[0]["fidelity_inputs"]
    delta_c = params["config"]["delta_c"]
    noise = noise_from_dict(params["noise"])
    return {
        "samples": [
            layout_fidelity(
                inputs, transpile_stats_from_dict(stats), delta_c, noise
            ).fidelity
            for stats in deps[1]["stats"]
        ]
    }


_RUNNERS = {
    "gp": run_gp_job,
    "lg": run_lg_job,
    "dp": run_dp_job,
    "transpile": run_transpile_job,
    "analyze": run_analyze_job,
    "fidelity": run_fidelity_job,
}


def execute_job(kind: str, params: dict, deps: list) -> dict:
    """Run one job; ``deps`` are the dependency payloads in job order."""
    return _RUNNERS[kind](params, deps)
