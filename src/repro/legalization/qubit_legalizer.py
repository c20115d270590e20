"""Quantum qubit legalization (paper Section III-C).

Qubits are macros; their legalization is the LP macro legalizer of [26]
*plus* the quantum minimum-spacing constraint: resonators run well above
qubit frequencies and isolate inter-qubit crosstalk, so at least one
standard-cell of clearance must separate adjacent qubits — enough room for
a resonator wire block to pass between them.

The solver starts from a stringent spacing (``initial_qubit_spacing``) and
greedily relaxes one site at a time toward ``min_qubit_spacing`` whenever
the LP is infeasible — the paper's iterative adjustment for densely packed
arrays.  The classical path (``quantum=False``) runs a single zero-spacing
solve, reproducing baseline macro legalization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import QGDPConfig
from repro.geometry import SiteGrid
from repro.legalization.bins import LegalizationInfeasible
from repro.legalization.macro_lp import MacroLegalizationResult, legalize_macros
from repro.netlist.netlist import QuantumNetlist


@dataclass
class QubitLegalizationResult:
    """Outcome of qubit legalization."""

    spacing_used: float
    attempts: int
    total_displacement: float
    max_displacement: float
    feasible: bool


def _spacing_schedule(config: QGDPConfig, quantum: bool) -> list:
    """Spacings to try, most stringent first."""
    if not quantum:
        return [0.0]
    schedule = []
    spacing = config.initial_qubit_spacing
    while spacing > config.min_qubit_spacing:
        schedule.append(spacing)
        spacing -= config.lb
    schedule.append(config.min_qubit_spacing)
    return schedule


def legalize_qubits(
    netlist: QuantumNetlist,
    grid: SiteGrid,
    config: QGDPConfig = None,
    quantum: bool = True,
) -> QubitLegalizationResult:
    """Legalize all qubit macros in place.

    ``quantum=True`` runs the paper's Section III-C legalizer (minimum
    spacing, greedy relaxation); ``quantum=False`` runs the classical
    macro legalizer [26] used by the Tetris/Abacus baselines.

    Raises :class:`~repro.legalization.bins.LegalizationInfeasible` when
    even the most relaxed schedule entry is infeasible — the die is
    undersized, which the layout builder prevents.
    """
    config = config or QGDPConfig()
    qubits = netlist.qubits
    indices = [q.index for q in qubits]
    positions = {q.index: (q.x, q.y) for q in qubits}
    sizes = {q.index: (q.w, q.h) for q in qubits}

    attempts = 0
    last: MacroLegalizationResult = None
    for spacing in _spacing_schedule(config, quantum):
        attempts += 1
        last = legalize_macros(indices, positions, sizes, grid, spacing)
        if last.feasible:
            break
    if last is None or not last.feasible:
        raise LegalizationInfeasible(
            "qubit",
            "no LP solution even at spacing "
            f"{config.min_qubit_spacing if quantum else 0.0}",
            topology=netlist.name,
        )

    for q in qubits:
        x, y = last.positions[q.index]
        q.move_to(x, y)
    return QubitLegalizationResult(
        spacing_used=last.spacing,
        attempts=attempts,
        total_displacement=last.total_displacement,
        max_displacement=last.max_displacement,
        feasible=True,
    )
