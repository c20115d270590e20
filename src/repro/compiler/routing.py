"""SWAP-insertion routing onto a device coupling graph.

Gates are processed in order; when a two-qubit gate's operands are not
adjacent on the device, SWAPs walk one operand along the shortest path
toward the other (each SWAP decomposing to 3 CX).  Simple, deterministic,
and adequate for the fidelity study — the paper's protocol averages over
random initial mappings rather than optimizing any single route.

Routing is a stream: it yields each physical gate's qubits as a plain
tuple and builds no gate list, so :func:`~repro.compiler.scheduling
.schedule` can consume it in one pass.
"""

from __future__ import annotations

from typing import Iterator

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.mapping import _shortest_path_cache
from repro.topologies.base import Topology


def route_circuit(
    circuit: QuantumCircuit,
    topology: Topology,
    mapping: dict,
) -> Iterator[tuple]:
    """Route ``circuit`` under ``mapping`` (logical → physical).

    Yields the physical qubits of every routed gate in order: ``(q,)``
    for a one-qubit gate, ``(a, b)`` on a coupling edge for a two-qubit
    gate, and three CX tuples per SWAP.  ``mapping`` starts as the
    initial mapping and is updated in place as SWAPs move logical
    qubits; once the stream is exhausted it is the final mapping.
    """
    graph = topology.graph
    inverse = {phys: logical for logical, phys in mapping.items()}
    for gate in circuit.gates:
        if gate.num_qubits == 1:
            yield (mapping[gate.qubits[0]],)
            continue
        la, lb = gate.qubits
        pa, pb = mapping[la], mapping[lb]
        if not graph.has_edge(pa, pb):
            path = _shortest_path_cache(topology, pa, pb)
            # Walk qubit ``la`` along the path until adjacent to ``pb``.
            for hop in path[1:-1]:
                a = mapping[la]
                yield (a, hop)
                yield (hop, a)
                yield (a, hop)
                at_a, at_hop = inverse.get(a), inverse.get(hop)
                if at_a is not None:
                    mapping[at_a] = hop
                if at_hop is not None:
                    mapping[at_hop] = a
                inverse[a], inverse[hop] = at_hop, at_a
            pa, pb = mapping[la], mapping[lb]
            # Coupling graphs have no self-loops, so an edge also
            # guarantees two distinct qubits.
            if not graph.has_edge(pa, pb):
                raise AssertionError(
                    f"routing failed to make ({la},{lb}) adjacent"
                )
        yield (pa, pb)
