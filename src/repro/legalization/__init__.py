"""Legalization engines: qGDP's quantum legalizer and the classical baselines.

Legalization turns the rough global placement into a legal layout
(non-overlap, Eq. 1; in-border, Eq. 2) while moving components as little
as possible.  qGDP splits the job (paper Section III):

* **qubit legalization** — constraint-graph + LP macro legalization with a
  quantum minimum-spacing constraint and a greedy relaxation schedule
  (:mod:`repro.legalization.qubit_legalizer`); the classical variant with
  zero spacing is the macro legalizer of [26]
  (:mod:`repro.legalization.macro_lp`);
* **resonator legalization** — the integration-aware Tetris-like scan of
  Algorithm 1 (:mod:`repro.legalization.integration_aware`), against the
  classical Tetris [27] and Abacus [29] cell legalizers.

:mod:`repro.legalization.engines` wires these into the five named
strategies the paper compares: qGDP-LG, Q-Abacus, Q-Tetris, Abacus, Tetris.
"""

from repro.legalization.bins import BinGrid, LegalizationInfeasible
from repro.legalization.constraint_graph import (
    Arc,
    AxisArcs,
    build_constraint_arrays,
    build_constraint_graphs,
    transitive_reduction,
)
from repro.legalization.macro_lp import legalize_macros, MacroLegalizationResult
from repro.legalization.qubit_legalizer import legalize_qubits, QubitLegalizationResult
from repro.legalization.tetris import tetris_legalize
from repro.legalization.abacus import abacus_legalize
from repro.legalization.integration_aware import integration_aware_legalize
from repro.legalization.engines import (
    LegalizationEngine,
    ENGINES,
    PAPER_ENGINE_ORDER,
    get_engine,
    run_legalization,
    LegalizationOutcome,
)

__all__ = [
    "BinGrid",
    "LegalizationInfeasible",
    "build_constraint_graphs",
    "build_constraint_arrays",
    "transitive_reduction",
    "Arc",
    "AxisArcs",
    "legalize_macros",
    "MacroLegalizationResult",
    "legalize_qubits",
    "QubitLegalizationResult",
    "tetris_legalize",
    "abacus_legalize",
    "integration_aware_legalize",
    "LegalizationEngine",
    "ENGINES",
    "PAPER_ENGINE_ORDER",
    "get_engine",
    "run_legalization",
    "LegalizationOutcome",
]
