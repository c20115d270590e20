"""Transpiler facade statistics."""

import pytest

from repro.circuits import get_benchmark
from repro.compiler import route_circuit, transpile
from repro.topologies import get_topology


def _routed(circuit, topology, transpiled):
    """The qubit stream routed from the transpiled circuit's mapping."""
    mapping = dict(transpiled.initial_mapping)
    stream = list(route_circuit(circuit, topology, mapping))
    assert mapping == transpiled.final_mapping
    return stream


@pytest.fixture(scope="module")
def transpiled():
    return transpile(get_benchmark("bv-9"), get_topology("falcon"), seed=4)


def test_stats_consistent_with_gates(transpiled):
    gates = _routed(get_benchmark("bv-9"), get_topology("falcon"), transpiled)
    ones = sum(1 for qubits in gates if len(qubits) == 1)
    twos = sum(1 for qubits in gates if len(qubits) == 2)
    assert ones > 0 and twos > 0
    assert sum(transpiled.gates_1q.values()) == ones
    assert sum(transpiled.gates_2q.values()) == 2 * twos
    assert transpiled.active_edges == {
        (min(qubits), max(qubits)) for qubits in gates if len(qubits) == 2
    }


def test_active_edges_are_coupling_edges(transpiled):
    falcon = get_topology("falcon")
    for a, b in transpiled.active_edges:
        assert a < b
        assert falcon.graph.has_edge(a, b)


def test_active_qubits_cover_mapping(transpiled):
    assert set(transpiled.initial_mapping.values()) <= transpiled.active_qubits


def test_duration_positive(transpiled):
    assert transpiled.duration_ns > 0
    assert transpiled.timing.duration_ns == transpiled.duration_ns


def test_seeded_transpile_deterministic():
    topo = get_topology("grid")
    circuit = get_benchmark("qaoa-4")
    a = transpile(circuit, topo, seed=9)
    b = transpile(circuit, topo, seed=9)
    assert a.initial_mapping == b.initial_mapping
    assert a.final_mapping == b.final_mapping
    stream = _routed(circuit, topo, a)
    assert any(len(qubits) == 2 for qubits in stream)
    assert stream == _routed(circuit, topo, b)
    for field in ("gates_1q", "gates_2q", "active_edges"):
        assert getattr(a, field) == getattr(b, field)
        assert list(getattr(a, field)) == list(getattr(b, field))
    assert a.timing.busy_ns == b.timing.busy_ns
    assert list(a.timing.busy_ns) == list(b.timing.busy_ns)
    assert a.duration_ns == b.duration_ns


def test_explicit_mapping_wins():
    topo = get_topology("grid")
    circuit = get_benchmark("qaoa-4")
    mapping = {0: 0, 1: 1, 2: 6, 3: 5}
    result = transpile(circuit, topo, initial_mapping=mapping)
    assert result.initial_mapping == mapping


def test_greedy_fallback_without_seed():
    topo = get_topology("grid")
    circuit = get_benchmark("qaoa-4")
    result = transpile(circuit, topo)
    assert len(set(result.initial_mapping.values())) == 4
