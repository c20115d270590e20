"""Device topology construction: sizes, connectivity, geometry."""

import networkx as nx
import pytest

from repro.topologies import (
    PAPER_TOPOLOGIES,
    Topology,
    available_topologies,
    eagle_topology,
    falcon_topology,
    get_topology,
    grid_topology,
    heavy_hex_lattice,
    octagon_lattice,
    xtree_topology,
)

# (name, qubits, resonators) straight from the paper's Tables I and III.
PAPER_SIZES = {
    "grid": (25, 40),
    "falcon": (27, 28),
    "eagle": (127, 144),
    "aspen11": (40, 48),
    "aspenm": (80, 106),
    "xtree": (53, 52),
}


@pytest.mark.parametrize("name", PAPER_TOPOLOGIES)
def test_paper_sizes_match(name):
    topo = get_topology(name)
    qubits, edges = PAPER_SIZES[name]
    assert topo.num_qubits == qubits
    assert topo.num_edges == edges


@pytest.mark.parametrize("name", PAPER_TOPOLOGIES)
def test_coupling_graphs_connected(name):
    topo = get_topology(name)
    assert nx.is_connected(topo.graph)


@pytest.mark.parametrize("name", PAPER_TOPOLOGIES)
def test_edges_canonical_and_unique(name):
    topo = get_topology(name)
    assert all(qi < qj for qi, qj in topo.edges)
    assert len(set(topo.edges)) == len(topo.edges)


@pytest.mark.parametrize("name", PAPER_TOPOLOGIES)
def test_every_qubit_has_a_position(name):
    topo = get_topology(name)
    assert set(topo.ideal_positions) == set(range(topo.num_qubits))


@pytest.mark.parametrize("name", PAPER_TOPOLOGIES)
def test_positions_distinct(name):
    topo = get_topology(name)
    points = list(topo.ideal_positions.values())
    assert len({(round(x, 6), round(y, 6)) for x, y in points}) == len(points)


def test_registry_case_insensitive():
    assert get_topology("Falcon").name == "falcon"


def test_registry_unknown_name():
    with pytest.raises(KeyError, match="available"):
        get_topology("nonexistent")


def test_available_topologies_sorted():
    names = available_topologies()
    assert names == sorted(names)
    assert set(PAPER_TOPOLOGIES) <= set(names)


def test_grid_structure():
    topo = grid_topology(4)
    assert topo.num_qubits == 16
    assert topo.num_edges == 2 * 4 * 3
    degrees = sorted(topo.degree(q) for q in range(16))
    assert degrees[0] == 2 and degrees[-1] == 4


def test_grid_rejects_tiny_side():
    with pytest.raises(ValueError):
        grid_topology(1)


def test_falcon_degree_profile():
    topo = falcon_topology()
    degrees = sorted(topo.degree(q) for q in range(27))
    assert max(degrees) == 3  # heavy hex never exceeds degree 3
    assert degrees.count(1) == 6  # six pendant qubits


def test_eagle_degree_profile():
    topo = eagle_topology()
    assert max(topo.degree(q) for q in range(127)) == 3


def test_heavy_hex_lattice_connector_edges():
    num, edges, positions = heavy_hex_lattice(rows=3, row_len=7, connectors=2)
    graph = nx.Graph(edges)
    graph.add_nodes_from(range(num))
    assert nx.is_connected(graph)
    assert max(dict(graph.degree).values()) <= 3


def test_heavy_hex_rejects_degenerate():
    with pytest.raises(ValueError):
        heavy_hex_lattice(rows=1, row_len=7, connectors=2)


def test_octagon_ring_degrees():
    num, edges, _ = octagon_lattice(ring_cols=2, ring_rows=1)
    assert num == 16
    assert len(edges) == 16 + 2
    graph = nx.Graph(edges)
    # Ring-internal vertices have degree 2, coupled side vertices degree 3.
    assert sorted(dict(graph.degree).values()) == [2] * 12 + [3] * 4


def test_octagon_rejects_empty():
    with pytest.raises(ValueError):
        octagon_lattice(0, 1)


def test_xtree_is_a_tree():
    topo = xtree_topology()
    assert nx.is_tree(topo.graph)
    assert topo.num_qubits == 53


def test_xtree_custom_branching():
    topo = xtree_topology((2, 2))
    assert topo.num_qubits == 1 + 2 + 4
    assert nx.is_tree(topo.graph)


def test_xtree_rejects_bad_branching():
    with pytest.raises(ValueError):
        xtree_topology(())
    with pytest.raises(ValueError):
        xtree_topology((0, 2))


def test_edge_length_positive():
    topo = get_topology("grid")
    for qi, qj in topo.edges:
        assert topo.edge_length(qi, qj) > 0


def test_extent_matches_positions():
    topo = grid_topology(5)
    assert topo.extent() == (4.0, 4.0)


def test_neighbors_sorted():
    topo = grid_topology(3)
    assert topo.neighbors(4) == [1, 3, 5, 7]  # centre of 3x3


def test_topology_validates_edges():
    from repro.topologies.base import Topology

    with pytest.raises(ValueError):
        Topology("bad", "Bad", 2, [(1, 0)], {0: (0, 0), 1: (1, 0)})
    with pytest.raises(ValueError):
        Topology("bad", "Bad", 2, [(0, 5)], {0: (0, 0), 1: (1, 0)})
    with pytest.raises(ValueError):
        Topology("bad", "Bad", 2, [(0, 1)], {0: (0, 0)})


def test_coincident_positions_rejected():
    # Two qubits at one ideal point have no closest-pair distance, and
    # size_grid divided by it.
    with pytest.raises(ValueError, match="qubits 0 and 2 share"):
        Topology(
            name="stacked",
            display_name="Stacked",
            num_qubits=3,
            edges=[(0, 1), (1, 2)],
            ideal_positions={0: (1.0, 1.0), 1: (2.0, 1.0), 2: (1.0, 1.0)},
        )
