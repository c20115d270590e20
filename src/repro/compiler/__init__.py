"""Transpilation onto device topologies.

The fidelity evaluation (Fig. 8) maps each benchmark onto each device 50
times with random initial placements, routes two-qubit gates with SWAP
insertion, schedules the result, and feeds the per-qubit statistics into
the noise model.  This package provides that compiler substrate.

Routing streams each physical gate's qubits straight into the scheduler,
which keeps only what the noise model reads: the makespan, per-qubit
busy times and 1q/2q gate tallies, and the active coupling edges.  No
routed gate list is built.
"""

from repro.compiler.mapping import random_mapping, greedy_mapping
from repro.compiler.routing import route_circuit
from repro.compiler.scheduling import schedule, Schedule
from repro.compiler.transpiler import transpile, TranspiledCircuit

__all__ = [
    "random_mapping",
    "greedy_mapping",
    "route_circuit",
    "schedule",
    "Schedule",
    "transpile",
    "TranspiledCircuit",
]
