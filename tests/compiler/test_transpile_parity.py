"""Parity: the streamed transpiler equals the original Gate-based one.

The reference below is a verbatim transcription of the original compiler
path: ``route_circuit`` built a :class:`~repro.circuits.gates.Gate` for
every routed gate (paths from ``nx.shortest_path``), ``schedule`` walked
that list, and ``transpile`` tallied it again.  Routing now streams
qubit tuples into one scheduling pass; the stats payload a ``transpile``
job stores must be the same, key order included, and so must the
iteration order of every dict and set the Eq. 7 product reads.
"""

import json

import networkx as nx
import pytest

from repro.circuits import get_benchmark
from repro.circuits.gates import Gate
from repro.compiler import transpile
from repro.compiler.mapping import greedy_mapping, random_mapping
from repro.orchestration.stages import transpile_stats_to_dict
from repro.orchestration.sweep import SweepSpec
from repro.topologies import PAPER_TOPOLOGIES, get_topology


# -- verbatim reference ------------------------------------------------------
def reference_route_circuit(circuit, topology, initial_mapping):
    graph = topology.graph
    mapping = dict(initial_mapping)
    inverse = {phys: logical for logical, phys in mapping.items()}
    physical_gates = []

    def emit_cx(a, b):
        physical_gates.append(Gate("cx", (a, b)))

    def do_swap(a, b):
        emit_cx(a, b)
        emit_cx(b, a)
        emit_cx(a, b)
        la, lb = inverse.get(a), inverse.get(b)
        if la is not None:
            mapping[la] = b
        if lb is not None:
            mapping[lb] = a
        inverse[a], inverse[b] = lb, la

    for gate in circuit.gates:
        if gate.num_qubits == 1:
            physical_gates.append(
                Gate(gate.name, (mapping[gate.qubits[0]],), gate.params)
            )
            continue
        la, lb = gate.qubits
        pa, pb = mapping[la], mapping[lb]
        if not graph.has_edge(pa, pb):
            path = nx.shortest_path(graph, pa, pb)
            for hop in path[1:-1]:
                do_swap(mapping[la], hop)
            pa, pb = mapping[la], mapping[lb]
            if not graph.has_edge(pa, pb):
                raise AssertionError(
                    f"routing failed to make ({la},{lb}) adjacent"
                )
        physical_gates.append(Gate(gate.name, (pa, pb), gate.params))
    return (physical_gates, mapping)


def reference_schedule(physical_gates):
    ready = {}
    busy = {}
    starts = []
    makespan = 0.0
    for gate in physical_gates:
        start = max((ready.get(q, 0.0) for q in gate.qubits), default=0.0)
        end = start + gate.duration_ns
        starts.append(start)
        for q in gate.qubits:
            ready[q] = end
            busy[q] = busy.get(q, 0.0) + gate.duration_ns
        makespan = max(makespan, end)
    return (makespan, busy, starts)


def reference_transpile(circuit, topology, initial_mapping):
    """``(final_mapping, duration_ns, busy_ns, gates_1q, gates_2q,
    active_edges)`` of the original facade."""
    physical_gates, final_mapping = reference_route_circuit(
        circuit, topology, initial_mapping
    )
    duration, busy, _starts = reference_schedule(physical_gates)
    gates_1q = {}
    gates_2q = {}
    active_edges = set()
    for gate in physical_gates:
        if gate.num_qubits == 1:
            q = gate.qubits[0]
            gates_1q[q] = gates_1q.get(q, 0) + 1
        else:
            a, b = gate.qubits
            for q in (a, b):
                gates_2q[q] = gates_2q.get(q, 0) + 1
            active_edges.add((min(a, b), max(a, b)))
    return (final_mapping, duration, busy, gates_1q, gates_2q, active_edges)


def reference_stats(circuit, topology, initial_mapping):
    """The original ``transpile_stats_to_dict`` of the original facade."""
    _final, duration, busy, gates_1q, gates_2q, edges = reference_transpile(
        circuit, topology, initial_mapping
    )
    return {
        "name": circuit.name,
        "topology_name": topology.name,
        "gates_1q": {str(q): n for q, n in gates_1q.items()},
        "gates_2q": {str(q): n for q, n in gates_2q.items()},
        "active_edges": sorted(list(edge) for edge in edges),
        "duration_ns": duration,
        "busy_ns": {str(q): t for q, t in busy.items()},
    }


# -- comparison --------------------------------------------------------------
def _assert_same(circuit, topology, transpiled):
    mapping = transpiled.initial_mapping
    final, duration, busy, gates_1q, gates_2q, edges = reference_transpile(
        circuit, topology, mapping
    )
    stats = transpile_stats_to_dict(transpiled)
    assert json.dumps(stats) == json.dumps(reference_stats(circuit, topology, mapping))
    assert transpiled.final_mapping == final
    assert transpiled.duration_ns == duration
    assert list(transpiled.timing.busy_ns.items()) == list(busy.items())
    assert list(transpiled.gates_1q.items()) == list(gates_1q.items())
    assert list(transpiled.gates_2q.items()) == list(gates_2q.items())
    assert list(transpiled.active_edges) == list(edges)


MAPPING_SEEDS = [SweepSpec((), (), ()).mapping_seed(k) for k in range(3)]


@pytest.mark.parametrize("topology_name", PAPER_TOPOLOGIES)
@pytest.mark.parametrize("benchmark_name", ["bv-9", "qaoa-4"])
def test_seeded_transpile_matches_reference(topology_name, benchmark_name):
    topology = get_topology(topology_name)
    circuit = get_benchmark(benchmark_name)
    for seed in MAPPING_SEEDS + [0, 7]:
        transpiled = transpile(circuit, topology, seed=seed)
        assert transpiled.initial_mapping == random_mapping(circuit, topology, seed)
        _assert_same(circuit, topology, transpiled)


@pytest.mark.parametrize("topology_name", PAPER_TOPOLOGIES)
def test_greedy_mapping_transpile_matches_reference(topology_name):
    topology = get_topology(topology_name)
    for benchmark_name in ("bv-9", "qaoa-4", "ising-4"):
        circuit = get_benchmark(benchmark_name)
        transpiled = transpile(circuit, topology)
        assert transpiled.initial_mapping == greedy_mapping(circuit, topology)
        _assert_same(circuit, topology, transpiled)


def test_explicit_mapping_transpile_matches_reference():
    topology = get_topology("grid")
    circuit = get_benchmark("qaoa-4")
    # Corners and the centre of the 5x5 grid: every gate needs SWAPs.
    mapping = {0: 0, 1: 24, 2: 4, 3: 20}
    transpiled = transpile(circuit, topology, initial_mapping=mapping)
    assert transpiled.initial_mapping == mapping
    assert transpiled.num_swaps_cx > 3 * 4
    _assert_same(circuit, topology, transpiled)
