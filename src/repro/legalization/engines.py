"""The five legalization engines the paper compares (Section IV).

============ ===================== ==========================
engine       qubit stage           resonator stage
============ ===================== ==========================
qgdp         quantum LP (III-C)    integration-aware (Alg. 1)
q-abacus     quantum LP (III-C)    Abacus [29]
q-tetris     quantum LP (III-C)    Tetris [27]
abacus       classical LP [26]     Abacus [29]
tetris       classical LP [26]     Tetris [27]
============ ===================== ==========================

Every engine consumes the same global placement (the paper fixes GP with
pseudo connections across all comparisons) and produces a legal layout
plus per-stage wall-clock times (tq, te of Table II).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import QGDPConfig
from repro.geometry import SiteGrid
from repro.legalization.abacus import abacus_legalize
from repro.legalization.bins import BinGrid, LegalizationInfeasible
from repro.legalization.integration_aware import integration_aware_legalize
from repro.legalization.qubit_legalizer import legalize_qubits
from repro.legalization.tetris import tetris_legalize
from repro.netlist.netlist import QuantumNetlist


@dataclass(frozen=True)
class LegalizationEngine:
    """A named (qubit stage, resonator stage) combination."""

    name: str
    display_name: str
    quantum_qubits: bool
    resonator_method: str  # "integration" | "abacus" | "tetris"


ENGINES = {
    "qgdp": LegalizationEngine("qgdp", "qGDP-LG", True, "integration"),
    "q-abacus": LegalizationEngine("q-abacus", "Q-Abacus", True, "abacus"),
    "q-tetris": LegalizationEngine("q-tetris", "Q-Tetris", True, "tetris"),
    "abacus": LegalizationEngine("abacus", "Abacus", False, "abacus"),
    "tetris": LegalizationEngine("tetris", "Tetris", False, "tetris"),
}

#: Engine order used by the paper's figures (Fig. 8, Fig. 9).
PAPER_ENGINE_ORDER = ["qgdp", "q-abacus", "q-tetris", "abacus", "tetris"]


def get_engine(name: str) -> LegalizationEngine:
    """Engine by name (case-insensitive); raises KeyError with options."""
    key = name.strip().lower()
    if key not in ENGINES:
        raise KeyError(
            f"unknown engine {name!r}; available: {', '.join(sorted(ENGINES))}"
        )
    return ENGINES[key]


@dataclass
class LegalizationOutcome:
    """What one engine produced on one layout."""

    engine: str
    qubit_time_s: float
    resonator_time_s: float
    qubit_displacement: float
    qubit_spacing_used: float
    qubit_attempts: int
    bins: BinGrid


def run_legalization(
    netlist: QuantumNetlist,
    grid: SiteGrid,
    engine: LegalizationEngine,
    config: QGDPConfig = None,
) -> LegalizationOutcome:
    """Run one engine's qubit + resonator legalization in place.

    A stage that finds no legal place raises
    :class:`~repro.legalization.bins.LegalizationInfeasible` naming the
    stage, this engine and ``netlist.name``.
    """
    config = config or QGDPConfig()

    try:
        t0 = time.perf_counter()
        qubit_result = legalize_qubits(
            netlist, grid, config, quantum=engine.quantum_qubits
        )
        tq = time.perf_counter() - t0

        bins = BinGrid(grid)
        for qubit in netlist.qubits:
            bins.occupy_rect(qubit.rect, qubit.node_id)

        t0 = time.perf_counter()
        if engine.resonator_method == "integration":
            integration_aware_legalize(netlist.resonators, bins, netlist)
        elif engine.resonator_method == "abacus":
            abacus_legalize(netlist.wire_blocks, bins)
        elif engine.resonator_method == "tetris":
            tetris_legalize(netlist.wire_blocks, bins)
        else:
            raise ValueError(f"unknown resonator method {engine.resonator_method!r}")
        te = time.perf_counter() - t0
    except LegalizationInfeasible as exc:
        exc.engine, exc.topology = engine.name, netlist.name
        raise

    return LegalizationOutcome(
        engine=engine.name,
        qubit_time_s=tq,
        resonator_time_s=te,
        qubit_displacement=qubit_result.total_displacement,
        qubit_spacing_used=qubit_result.spacing_used,
        qubit_attempts=qubit_result.attempts,
        bins=bins,
    )
