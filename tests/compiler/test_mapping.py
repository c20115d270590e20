"""Initial mapping strategies."""

import networkx as nx
import pytest

import repro.compiler.mapping
from repro.circuits import PAPER_BENCHMARKS, get_benchmark
from repro.compiler import greedy_mapping, random_mapping
from repro.topologies import PAPER_TOPOLOGIES, get_topology


@pytest.fixture(scope="module")
def falcon():
    return get_topology("falcon")


@pytest.fixture(scope="module")
def bv9():
    return get_benchmark("bv-9")


def test_random_mapping_injective(falcon, bv9):
    mapping = random_mapping(bv9, falcon, seed=3)
    assert len(mapping) == 9
    assert len(set(mapping.values())) == 9
    assert set(mapping) == set(range(9))


def test_random_mapping_region_connected(falcon, bv9):
    for seed in range(10):
        mapping = random_mapping(bv9, falcon, seed=seed)
        region = falcon.graph.subgraph(mapping.values())
        assert nx.is_connected(region), f"seed {seed} not connected"


def test_random_mapping_deterministic(falcon, bv9):
    assert random_mapping(bv9, falcon, seed=5) == random_mapping(
        bv9, falcon, seed=5
    )


def test_random_mapping_varies_with_seed(falcon, bv9):
    maps = {tuple(sorted(random_mapping(bv9, falcon, seed=s).items())) for s in range(8)}
    assert len(maps) > 1


def test_random_mapping_rejects_oversize(falcon):
    from repro.circuits import QuantumCircuit

    with pytest.raises(ValueError):
        random_mapping(QuantumCircuit(28), falcon, seed=1)


def test_greedy_mapping_injective_and_tight(falcon, bv9):
    mapping = greedy_mapping(bv9, falcon)
    assert len(set(mapping.values())) == 9
    # The ancilla (most interactions) should sit next to many inputs.
    ancilla_phys = mapping[8]
    neighbors = set(falcon.graph.neighbors(ancilla_phys))
    mapped_inputs = {mapping[q] for q in range(8)}
    assert neighbors & mapped_inputs


def test_greedy_mapping_whole_device():
    grid = get_topology("grid")
    circuit = get_benchmark("bv-16")
    mapping = greedy_mapping(circuit, grid)
    assert len(set(mapping.values())) == 16


def _paper_mappings():
    """random_mapping of every paper cell, each on a freshly built topology."""
    mappings = {}
    for topology_name in PAPER_TOPOLOGIES:
        for bench_name in PAPER_BENCHMARKS:
            topology = get_topology(topology_name)
            circuit = get_benchmark(bench_name)
            if circuit.num_qubits <= topology.num_qubits:
                mappings[(topology_name, bench_name)] = random_mapping(
                    circuit, topology, seed=11
                )
    return mappings


def test_path_memo_never_crosses_topologies(monkeypatch):
    """Freed graphs' ids are reused; a memo keyed by object identity would
    hand one topology's shortest paths to the next.  With every graph
    given the same id, the mappings must not change."""
    reference = _paper_mappings()
    monkeypatch.setattr(repro.compiler.mapping, "id", lambda obj: 0, raising=False)
    assert _paper_mappings() == reference
