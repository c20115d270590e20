"""Transpiler facade: map, then schedule the routed gate stream."""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.mapping import greedy_mapping, random_mapping
from repro.compiler.routing import route_circuit
from repro.compiler.scheduling import Schedule, schedule
from repro.topologies.base import Topology


@dataclass
class TranspiledCircuit:
    """A routed, scheduled circuit: the statistics the noise model needs.

    ``timing`` holds the makespan, the per-qubit busy times and gate
    tallies and the active edges; no routed gate list is kept.
    """

    name: str
    topology_name: str
    initial_mapping: dict
    final_mapping: dict
    timing: Schedule

    @property
    def gates_1q(self) -> dict:
        """Physical qubit → one-qubit gate count."""
        return self.timing.gates_1q

    @property
    def gates_2q(self) -> dict:
        """Physical qubit → two-qubit gate count (SWAPs as 3 CX)."""
        return self.timing.gates_2q

    @property
    def active_edges(self) -> set:
        """Resonators used by two-qubit gates, as ``(qi, qj)``, ``qi < qj``."""
        return self.timing.active_edges

    @property
    def active_qubits(self) -> set:
        """Physical qubits the program actually touches."""
        return set(self.gates_1q) | set(self.gates_2q)

    @property
    def num_swaps_cx(self) -> int:
        """Total CX count (including SWAP decompositions)."""
        return sum(self.gates_2q.values()) // 2

    @property
    def duration_ns(self) -> float:
        """Schedule makespan."""
        return self.timing.duration_ns


def transpile(
    circuit: QuantumCircuit,
    topology: Topology,
    seed: int = None,
    initial_mapping: dict = None,
) -> TranspiledCircuit:
    """Compile a logical circuit onto a device.

    ``initial_mapping`` wins when given; otherwise a seeded random mapping
    (the paper's protocol) when ``seed`` is set, else the greedy mapping.
    """
    if initial_mapping is None:
        if seed is not None:
            initial_mapping = random_mapping(circuit, topology, seed)
        else:
            initial_mapping = greedy_mapping(circuit, topology)

    final_mapping = dict(initial_mapping)
    timing = schedule(route_circuit(circuit, topology, final_mapping))
    return TranspiledCircuit(
        name=circuit.name,
        topology_name=topology.name,
        initial_mapping=dict(initial_mapping),
        final_mapping=final_mapping,
        timing=timing,
    )
