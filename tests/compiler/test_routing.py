"""SWAP-insertion routing."""

import pytest

from repro.circuits import QuantumCircuit, get_benchmark
from repro.compiler import route_circuit, transpile
from repro.compiler.mapping import random_mapping
from repro.topologies import get_topology
from repro.topologies.base import Topology


@pytest.fixture(scope="module")
def grid():
    return get_topology("grid")


def _route(circuit, topology, mapping):
    """The routed qubit stream and the final mapping."""
    final = dict(mapping)
    return (list(route_circuit(circuit, topology, final)), final)


def test_all_physical_2q_gates_on_edges(grid):
    circuit = get_benchmark("bv-9")
    for seed in range(5):
        mapping = random_mapping(circuit, grid, seed=seed)
        gates, _final = _route(circuit, grid, mapping)
        for qubits in gates:
            if len(qubits) == 2:
                assert grid.graph.has_edge(*qubits), qubits


def test_adjacent_gate_needs_no_swaps(grid):
    circuit = QuantumCircuit(2).cx(0, 1)
    mapping = {0: 0, 1: 1}  # adjacent on the grid
    gates, final = _route(circuit, grid, mapping)
    assert gates == [(0, 1)]
    assert final == mapping


def test_distant_gate_inserts_swaps(grid):
    circuit = QuantumCircuit(2).cx(0, 1)
    mapping = {0: 0, 1: 24}  # opposite corners: distance 8
    gates, final = _route(circuit, grid, mapping)
    assert len(gates) == 1 + 3 * 7  # 7 swaps of 3 CX, then the gate
    # Logical 0 walked to a neighbour of logical 1's position.
    assert grid.graph.has_edge(final[0], final[1])
    assert gates[-1] == (final[0], final[1])


def test_mapping_updates_consistently(grid):
    circuit = QuantumCircuit(3).cx(0, 2).cx(1, 2).cx(0, 1)
    mapping = {0: 0, 1: 12, 2: 24}
    gates, final = _route(circuit, grid, mapping)
    assert sorted(final) == [0, 1, 2]
    assert len(set(final.values())) == 3


def test_one_qubit_gates_follow_mapping(grid):
    circuit = QuantumCircuit(2).h(0).cx(0, 1).h(0)
    mapping = {0: 0, 1: 24}
    gates, final = _route(circuit, grid, mapping)
    h_gates = [qubits for qubits in gates if len(qubits) == 1]
    assert h_gates[0] == (0,)  # before any swap
    assert h_gates[1] == (final[0],)  # after the walk


def test_mapping_updated_in_place_as_the_stream_is_consumed(grid):
    circuit = QuantumCircuit(2).cx(0, 1)
    mapping = {0: 0, 1: 24}
    stream = route_circuit(circuit, grid, mapping)
    assert mapping == {0: 0, 1: 24}  # nothing routed yet
    gates = list(stream)
    assert grid.graph.has_edge(mapping[0], mapping[1])
    assert gates[-1] == (mapping[0], mapping[1])


@pytest.fixture(scope="module")
def split():
    """Two components: qubits {0, 1} and {2, 3}."""
    return Topology(
        "split4", "Split4", 4, [(0, 1), (2, 3)],
        {0: (0, 0), 1: (1, 0), 2: (3, 0), 3: (4, 0)},
    )


def test_no_path_is_a_value_error_naming_topology_and_qubits(split):
    circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2)
    with pytest.raises(ValueError, match=r"split4: no path between physical qubits 1 and 2"):
        list(route_circuit(circuit, split, {0: 0, 1: 1, 2: 2}))
    with pytest.raises(ValueError, match="split4: no path between physical qubits"):
        transpile(circuit, split, initial_mapping={0: 0, 1: 1, 2: 2})


@pytest.mark.parametrize("seed", range(6))
def test_random_mapping_on_a_disconnected_topology_raises_value_error(split, seed):
    circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2)
    with pytest.raises(ValueError, match="split4: no path between physical qubits"):
        transpile(circuit, split, seed=seed)
