"""Stage runners: the functions that execute one job of each kind.

Every runner is a pure function of ``(params, dep_payloads)`` returning a
JSON-safe payload, and every runner rebuilds its working state (netlist,
grid, occupancy) from the topology + config in its params plus position
snapshots from upstream payloads.  That makes jobs location-transparent:
the same runner produces bit-identical output whether it executes in the
parent process (serial executor), a worker process (process pool), or is
skipped entirely because the artifact store already holds its payload.

``execute_job`` is the single dispatch point and is importable at module
level so :class:`concurrent.futures.ProcessPoolExecutor` can pickle it.
"""

from __future__ import annotations

import time
from dataclasses import asdict

from repro.circuits.registry import get_benchmark
from repro.compiler.scheduling import Schedule
from repro.compiler.transpiler import TranspiledCircuit, transpile
from repro.core.config import QGDPConfig
from repro.core.result import decode_snapshot, encode_snapshot
from repro.crosstalk.fidelity import program_fidelity
from repro.crosstalk.parameters import NoiseParameters
from repro.detailed.placer import DetailedPlacer
from repro.frequency.hotspots import HotspotPair, hotspot_pairs
from repro.geometry import SiteGrid
from repro.legalization.bins import BinGrid
from repro.legalization.engines import get_engine, run_legalization
from repro.metrics.legality import LegalityViolation, qubit_spacing_violations
from repro.metrics.report import LayoutMetrics, layout_metrics
from repro.netlist.netlist import QuantumNetlist
from repro.placement.builder import build_layout
from repro.placement.global_placer import GlobalPlacer
from repro.routing.crossings import CrossingReport, count_crossings
from repro.topologies.registry import get_topology


# -- config / metrics codecs -------------------------------------------------
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


def metrics_from_dict(data: dict) -> LayoutMetrics:
    """Rebuild a :class:`LayoutMetrics` stored in a job payload."""
    return LayoutMetrics(**data)


def rebuild_occupancy(netlist: QuantumNetlist, grid: SiteGrid) -> BinGrid:
    """Reconstruct the occupancy index of a legalized layout.

    A legal layout determines its occupancy completely: qubit macros
    cover the sites under their rectangles and each wire block sits on
    exactly one site.  ``occupy``/``occupy_rect`` raise on conflicts, so
    feeding a non-legal snapshot fails loudly instead of silently
    mis-counting crossings.
    """
    bins = BinGrid(grid)
    for qubit in netlist.qubits:
        bins.occupy_rect(qubit.rect, qubit.node_id)
    for block in netlist.wire_blocks:
        col, row = grid.site_of(block.center)
        bins.occupy(col, row, block.node_id)
    return bins


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
        physical_gates=[],
        timing=Schedule(
            duration_ns=data["duration_ns"],
            busy_ns={int(q): t for q, t in data["busy_ns"].items()},
        ),
        gates_1q={int(q): n for q, n in data["gates_1q"].items()},
        gates_2q={int(q): n for q, n in data["gates_2q"].items()},
        active_edges={tuple(edge) for edge in data["active_edges"]},
    )


# -- layout analysis codec ---------------------------------------------------
# Component ids appear in three shapes: ("q", index), ("e", (qi, qj)) and
# ("b", (qi, qj), ordinal).  Encoding flattens them to JSON rows; decoding
# restores the exact tuples program_fidelity pattern-matches on.
def _encode_component_id(cid: tuple) -> list:
    tag = cid[0]
    if tag == "q":
        return ["q", cid[1]]
    if tag == "e":
        return ["e", cid[1][0], cid[1][1]]
    if tag == "b":
        return ["b", cid[1][0], cid[1][1], cid[2]]
    raise ValueError(f"unknown component id {cid!r}")


def _decode_component_id(row: list) -> tuple:
    tag = row[0]
    if tag == "q":
        return ("q", row[1])
    if tag == "e":
        return ("e", (row[1], row[2]))
    if tag == "b":
        return ("b", (row[1], row[2]), row[3])
    raise ValueError(f"unknown component id row {row!r}")


def analysis_to_dict(
    violations: dict, hotspots: dict, crossings: dict
) -> dict:
    """Serialize one layout's crosstalk analysis (the Eq. 7 inputs).

    Dict entries are stored as ordered row lists, so decoding rebuilds
    dicts with identical iteration order — the Eq. 7 fidelity factors are
    float products folded in that order.
    """
    return {
        "violations": [
            [v.id_a[1], v.id_b[1], v.amount] for v in violations
        ],
        "hotspots": [
            [
                _encode_component_id(p.id_a),
                _encode_component_id(p.id_b),
                p.adjacency,
                p.gap,
                p.tau_weight,
                p.contribution,
            ]
            for p in hotspots
        ],
        "bridged_blocks": [
            [[qi, qj], [_encode_component_id(owner) for owner in owners]]
            for (qi, qj), owners in crossings.bridged_blocks.items()
        ],
        "pair_crossings": [
            [list(key_a), list(key_b), count]
            for (key_a, key_b), count in crossings.pair_crossings.items()
        ],
        "per_resonator": [
            [list(key), count]
            for key, count in crossings.per_resonator.items()
        ],
    }


def analysis_from_dict(data: dict) -> tuple:
    """Inverse of :func:`analysis_to_dict`: ``(violations, hotspots,
    crossings)`` exactly as the in-process analysis produced them."""
    violations = [
        LegalityViolation("qubit_spacing", ("q", ia), ("q", ib), amount)
        for ia, ib, amount in data["violations"]
    ]
    hotspots = [
        HotspotPair(
            _decode_component_id(id_a),
            _decode_component_id(id_b),
            adjacency,
            gap,
            tau_weight,
            contribution,
        )
        for id_a, id_b, adjacency, gap, tau_weight, contribution in data[
            "hotspots"
        ]
    ]
    crossings = CrossingReport(
        per_resonator={
            tuple(key): count for key, count in data["per_resonator"]
        },
        pair_crossings={
            (tuple(key_a), tuple(key_b)): count
            for key_a, key_b, count in data["pair_crossings"]
        },
        bridged_blocks={
            tuple(key): [_decode_component_id(owner) for owner in owners]
            for key, owners in data["bridged_blocks"]
        },
    )
    return (violations, hotspots, crossings)


# -- runners -----------------------------------------------------------------
def _restored_layout(params: dict, positions_payload: dict) -> tuple:
    """(netlist, grid, config) with positions restored from a payload."""
    config = config_from_dict(params["config"])
    topology = get_topology(params["topology"])
    netlist, grid = build_layout(topology, config)
    netlist.restore(decode_snapshot(positions_payload["positions"]))
    return netlist, grid, config


def run_gp_job(params: dict, deps: list) -> dict:
    """Global placement of one topology."""
    config = config_from_dict(params["config"])
    topology = get_topology(params["topology"])
    t0 = time.perf_counter()
    netlist, grid = build_layout(topology, config)
    summary = GlobalPlacer(config).run(netlist, grid, seed=params["seed"])
    return {
        "positions": encode_snapshot(netlist.snapshot()),
        "hpwl": summary.hpwl,
        "max_bin_overflow": summary.max_bin_overflow,
        "runtime_s": time.perf_counter() - t0,
    }


def run_lg_job(params: dict, deps: list) -> dict:
    """Legalize one topology with one engine, from the GP snapshot."""
    netlist, grid, config = _restored_layout(params, deps[0])
    outcome = run_legalization(
        netlist, grid, get_engine(params["engine"]), config
    )
    return {
        "positions": encode_snapshot(netlist.snapshot()),
        "qubit_time_s": outcome.qubit_time_s,
        "resonator_time_s": outcome.resonator_time_s,
        "qubit_displacement": outcome.qubit_displacement,
        "qubit_spacing_used": outcome.qubit_spacing_used,
        "qubit_attempts": outcome.qubit_attempts,
    }


def run_dp_job(params: dict, deps: list) -> dict:
    """Detailed placement on top of one engine's legalization.

    ``deps[0]`` is the engine's ``lg`` payload.  A legal layout fixes its
    occupancy completely, so the occupancy index the placer refines is
    rebuilt from that snapshot (:func:`rebuild_occupancy`).
    """
    netlist, grid, config = _restored_layout(params, deps[0])
    bins = rebuild_occupancy(netlist, grid)
    t0 = time.perf_counter()
    summary = DetailedPlacer(config).run(netlist, bins)
    return {
        "positions": encode_snapshot(netlist.snapshot()),
        "dp_time_s": time.perf_counter() - t0,
        "flagged": summary.flagged,
        "accepted": summary.accepted,
        "reverted": summary.reverted,
    }


def run_transpile_job(params: dict, deps: list) -> dict:
    """Map + route + schedule one benchmark onto one topology (one seed)."""
    topology = get_topology(params["topology"])
    circuit = get_benchmark(params["benchmark"])
    transpiled = transpile(circuit, topology, seed=params["seed"])
    return transpile_stats_to_dict(transpiled)


def run_analyze_job(params: dict, deps: list) -> dict:
    """Layout-level crosstalk analysis of one legalized layout.

    ``deps[0]`` is the layout payload (LG or DP snapshot).  The spacing
    violations, hotspot pairs and crossing report depend only on the
    layout — one ``analyze`` job per (topology, engine) is shared by
    every benchmark's fidelity cell, exactly like the historical
    in-process harness shared its per-layout artifacts.
    """
    netlist, grid, config = _restored_layout(params, deps[0])
    bins = rebuild_occupancy(netlist, grid)
    return analysis_to_dict(
        qubit_spacing_violations(netlist, config.min_qubit_spacing),
        hotspot_pairs(netlist, config.reach, config.delta_c),
        count_crossings(netlist, bins),
    )


def run_fidelity_job(params: dict, deps: list) -> dict:
    """Eq. 7 fidelity samples of one (topology, benchmark, engine) cell.

    ``deps[0]`` is the layout payload (LG, or DP when the sweep runs
    detailed placement), ``deps[1]`` the layout's ``analyze`` payload;
    the rest are the per-seed transpile payloads in seed order.
    """
    netlist, grid, config = _restored_layout(params, deps[0])
    noise = noise_from_dict(params["noise"])
    violations, hotspots, crossings = analysis_from_dict(deps[1])
    samples = []
    for stats_payload in deps[2:]:
        transpiled = transpile_stats_from_dict(stats_payload)
        breakdown = program_fidelity(
            netlist,
            transpiled,
            crossings,
            config,
            noise,
            hotspots=hotspots,
            violations=violations,
        )
        samples.append(breakdown.fidelity)
    return {"samples": samples}


def run_metrics_job(params: dict, deps: list) -> dict:
    """Layout-quality report of one (topology, engine): Fig. 9 / Tables II–III.

    ``deps[0]`` is the engine's ``lg`` payload; for engines that also run
    detailed placement (the paper's qGDP-DP), ``deps[1]`` is the ``dp``
    payload.  The :class:`~repro.metrics.report.LayoutMetrics` sets are
    recomputed from the restored snapshots — occupancy rebuilt exactly
    like the ``analyze`` job, so the numbers are bit-identical to an
    in-process :func:`~repro.metrics.report.layout_metrics` call on the
    live layout — while the wall-clock timings (Table II's tq/te) ride
    through from the upstream payloads.  A warm cache therefore replays
    the exact timing values the stage measured when it actually ran,
    which is what makes regenerated tables byte-stable across reruns.
    """
    netlist, grid, config = _restored_layout(params, deps[0])
    payload = {
        "metrics": asdict(
            layout_metrics(netlist, rebuild_occupancy(netlist, grid), config)
        ),
        "qubit_time_s": deps[0]["qubit_time_s"],
        "resonator_time_s": deps[0]["resonator_time_s"],
    }
    if len(deps) > 1:
        netlist, grid, config = _restored_layout(params, deps[1])
        payload["dp_metrics"] = asdict(
            layout_metrics(netlist, rebuild_occupancy(netlist, grid), config)
        )
        payload["dp_time_s"] = deps[1]["dp_time_s"]
    return payload


_RUNNERS = {
    "gp": run_gp_job,
    "lg": run_lg_job,
    "dp": run_dp_job,
    "transpile": run_transpile_job,
    "analyze": run_analyze_job,
    "fidelity": run_fidelity_job,
    "metrics": run_metrics_job,
}


def execute_job(kind: str, params: dict, deps: list) -> dict:
    """Run one job; ``deps`` are the dependency payloads in job order."""
    return _RUNNERS[kind](params, deps)
