"""The Eq. 7 program fidelity estimator.

    F = Π_{q∈Q} (1 - εq) · Π_{g∈G} (1 - εg) · Π_{e∈E} (1 - εe)

Only actively engaged components contribute: εq runs over physical qubits
the transpiled program touches; εg over spatially violating qubit pairs
with at least one active member; εe over crossings and violating resonator
pairs involving at least one active resonator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import QGDPConfig
from repro.compiler.transpiler import TranspiledCircuit
from repro.crosstalk.errors import (
    crossing_error,
    qubit_error,
    rabi_crosstalk_error,
    resonator_pair_error,
)
from repro.crosstalk.parameters import DEFAULT_NOISE, NoiseParameters
from repro.frequency.hotspots import hotspot_pairs
from repro.metrics.legality import qubit_spacing_violations
from repro.metrics.report import fidelity_inputs
from repro.netlist.netlist import QuantumNetlist
from repro.routing.crossings import CrossingReport


@dataclass
class FidelityBreakdown:
    """Eq. 7 factors, separable for analysis."""

    fidelity: float
    qubit_factor: float
    qubit_crosstalk_factor: float
    resonator_factor: float
    num_violating_pairs: int
    num_active_crossings: int


def program_qubit_factor(
    transpiled: TranspiledCircuit, params: NoiseParameters = DEFAULT_NOISE
) -> float:
    """Eq. 7's Π(1 - εq) over the program's active qubits, in set order.

    It reads the program alone, so one factor serves every layout the
    program is scored on (:func:`crosstalk_fidelity`).
    """
    duration = transpiled.duration_ns
    # Decoherence charges each qubit its busy time plus a fraction of its
    # idle window: idling qubits dephase, but echo/dynamical-decoupling
    # keeps idle decay well below busy decay on real devices.
    qubit_factor = 1.0
    for q in transpiled.active_qubits:
        busy = transpiled.timing.busy_ns.get(q, 0.0)
        idle = max(0.0, duration - busy)
        eps = qubit_error(
            transpiled.gates_1q.get(q, 0),
            transpiled.gates_2q.get(q, 0),
            busy + params.idle_decay_fraction * idle,
            params,
        )
        qubit_factor *= 1.0 - eps
    return qubit_factor


def layout_fidelity(
    inputs: dict,
    transpiled: TranspiledCircuit,
    delta_c: float,
    params: NoiseParameters = DEFAULT_NOISE,
) -> FidelityBreakdown:
    """Eq. 7 from a layout's :func:`~repro.metrics.report.fidelity_inputs`
    rows alone (an ``analyze`` payload carries them), folded in row order.
    """
    return crosstalk_fidelity(
        inputs,
        transpiled,
        program_qubit_factor(transpiled, params),
        delta_c,
        params,
    )


def crosstalk_fidelity(
    inputs: dict,
    transpiled: TranspiledCircuit,
    qubit_factor: float,
    delta_c: float,
    params: NoiseParameters = DEFAULT_NOISE,
) -> FidelityBreakdown:
    """:func:`layout_fidelity` with the program's qubit factor given.

    ``qubit_factor`` is :func:`program_qubit_factor` of ``transpiled``;
    the εg and εe factors are folded from the layout's rows.
    """
    active_qubits = transpiled.active_qubits
    active_edges = transpiled.active_edges
    duration = transpiled.duration_ns

    # -- εg over violating qubit pairs -----------------------------------
    qubit_crosstalk_factor = 1.0
    num_pairs = 0
    for a, b, gap, f_a, f_b in inputs["qubit_pairs"]:
        if a not in active_qubits and b not in active_qubits:
            continue
        num_pairs += 1
        eps = rabi_crosstalk_error(gap, f_a, f_b, duration, delta_c, params)
        qubit_crosstalk_factor *= 1.0 - eps

    # -- εe: crossings on active resonators --------------------------------
    resonator_factor = 1.0
    num_active_crossings = 0
    for qi, qj, oi, oj, f, f_o in inputs["bridges"]:
        if (qi, qj) not in active_edges and (oi, oj) not in active_edges:
            continue
        num_active_crossings += 1
        resonator_factor *= 1.0 - crossing_error(
            f, f_o, duration, delta_c, params, wire_to_wire=False
        )
    for ai, aj, bi, bj, count, f_a, f_b in inputs["crossings"]:
        if (ai, aj) not in active_edges and (bi, bj) not in active_edges:
            continue
        num_active_crossings += count
        eps = crossing_error(f_a, f_b, duration, delta_c, params)
        resonator_factor *= (1.0 - eps) ** count

    # -- εe: spatially violating resonator pairs ---------------------------
    # Trace-exposure hotspots arrive already aggregated per resonator
    # pair; each contributes one parasitic coupling (and one εe).
    for ai, aj, bi, bj, contribution in inputs["resonator_pairs"]:
        if (ai, aj) not in active_edges and (bi, bj) not in active_edges:
            continue
        eps = resonator_pair_error(contribution, duration, params)
        resonator_factor *= 1.0 - eps

    fidelity = qubit_factor * qubit_crosstalk_factor * resonator_factor
    return FidelityBreakdown(
        fidelity=fidelity,
        qubit_factor=qubit_factor,
        qubit_crosstalk_factor=qubit_crosstalk_factor,
        resonator_factor=resonator_factor,
        num_violating_pairs=num_pairs,
        num_active_crossings=num_active_crossings,
    )


def program_fidelity(
    netlist: QuantumNetlist,
    transpiled: TranspiledCircuit,
    crossings: CrossingReport,
    config: QGDPConfig = None,
    params: NoiseParameters = DEFAULT_NOISE,
    hotspots: list = None,
    violations: list = None,
) -> FidelityBreakdown:
    """Estimate worst-case program fidelity on the current layout.

    ``crossings`` comes from :func:`repro.routing.crossings.count_crossings`
    on the same layout; ``hotspots`` / ``violations`` optionally reuse
    precomputed :func:`~repro.frequency.hotspots.hotspot_pairs` /
    :func:`~repro.metrics.legality.qubit_spacing_violations` results so
    seed sweeps do not recompute layout-level analysis.
    """
    config = config or QGDPConfig()
    if violations is None:
        violations = qubit_spacing_violations(netlist, config.min_qubit_spacing)
    if hotspots is None:
        hotspots = hotspot_pairs(
            netlist, config.reach, config.delta_c, config.lb
        )
    inputs = fidelity_inputs(netlist, violations, hotspots, crossings)
    return layout_fidelity(inputs, transpiled, config.delta_c, params)
