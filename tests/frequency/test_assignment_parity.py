"""Parity: resonator colours from incidence sets equal the line-graph plan.

The reference below is a verbatim transcription of the original
resonator plan: ``nx.line_graph`` of the coupling graph, its canonical
copy as the hard graph, and the edges of ``nx.power(canon, 2)`` that are
not hard as the soft graph, coloured by the graph-based two-tier greedy.
The plan now reads both neighbour sets off a qubit → incident-couplers
index; every colour must be the same.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import QGDPConfig
from repro.frequency import assign_frequencies
from repro.frequency.assignment import _coupler_neighbours, _two_tier_coloring
from repro.placement import build_layout
from repro.topologies import PAPER_TOPOLOGIES, get_topology, grid_topology


# -- verbatim reference ------------------------------------------------------
def reference_two_tier_coloring(hard, soft, num_colors):
    degree = {
        node: hard.degree[node] + soft.degree[node] for node in hard.nodes
    }
    order = sorted(hard.nodes, key=lambda node: (-degree[node], node))
    colors = {}
    for node in order:
        cost = [0] * num_colors
        for nbr in hard.neighbors(node):
            if nbr in colors:
                cost[colors[nbr]] += 1000
        for nbr in soft.neighbors(node):
            if nbr in colors:
                cost[colors[nbr]] += 1
        best = min(range(num_colors), key=lambda c: (cost[c], c))
        colors[node] = best
    return colors


def reference_resonator_colors(graph, num_colors):
    line_graph = nx.line_graph(graph)
    canon = nx.Graph()
    canon.add_nodes_from((min(u), max(u)) if isinstance(u, tuple) else u
                         for u in line_graph.nodes)
    for u, v in line_graph.edges:
        cu = (min(u), max(u))
        cv = (min(v), max(v))
        canon.add_edge(cu, cv)
    if canon.number_of_nodes() > 0 and canon.number_of_edges() > 0:
        squared = nx.power(canon, 2)
        soft = nx.Graph()
        soft.add_nodes_from(canon.nodes)
        soft.add_edges_from(
            (u, v) for u, v in squared.edges if not canon.has_edge(u, v)
        )
    else:
        soft = nx.Graph()
        soft.add_nodes_from(canon.nodes)
    return reference_two_tier_coloring(canon, soft, num_colors)


# -- comparison --------------------------------------------------------------
def _colors(graph, num_colors):
    return _two_tier_coloring(*_coupler_neighbours(graph), num_colors)


def _graph(num_qubits, edges):
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    graph.add_edges_from(edges)
    return graph


@pytest.mark.parametrize(
    "topology",
    [get_topology(name) for name in PAPER_TOPOLOGIES]
    + [grid_topology(side) for side in (3, 8, 24)],
    ids=lambda topology: topology.name,
)
@pytest.mark.parametrize("num_colors", [1, 2, 3, 5])
def test_colors_match_reference_on_topologies(topology, num_colors):
    expected = reference_resonator_colors(topology.graph, num_colors)
    assert _colors(topology.graph, num_colors) == expected


@pytest.mark.parametrize(
    "num_qubits, edges",
    [
        (0, []),
        (3, []),  # qubits, no couplers
        (2, [(0, 1)]),  # one coupler
        (6, [(0, k) for k in range(1, 6)]),  # a star
        (3, [(0, 1), (0, 2), (1, 2)]),  # a triangle
        (7, [(0, 1), (1, 2), (4, 5)]),  # isolated qubits 3 and 6
    ],
    ids=["empty", "no-edges", "one-edge", "star", "triangle", "isolated"],
)
def test_colors_match_reference_on_edge_cases(num_qubits, edges):
    graph = _graph(num_qubits, edges)
    for num_colors in (1, 2, 5):
        assert _colors(graph, num_colors) == reference_resonator_colors(
            graph, num_colors
        )


@st.composite
def graphs(draw):
    num_qubits = draw(st.integers(1, 14))
    pairs = [(a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return _graph(num_qubits, edges)


@settings(max_examples=300, deadline=None)
@given(graph=graphs(), num_colors=st.integers(1, 6))
def test_colors_match_reference_on_random_graphs(graph, num_colors):
    assert _colors(graph, num_colors) == reference_resonator_colors(
        graph, num_colors
    )


def test_assigned_frequencies_use_the_reference_bands():
    """End to end: every resonator of a built paper device sits on the
    band the reference plan gives it."""
    config = QGDPConfig(gp_iterations=1)
    for name in PAPER_TOPOLOGIES:
        topology = get_topology(name)
        netlist, _grid = build_layout(topology, config)
        bands = config.resonator_bands
        plan = assign_frequencies(
            netlist, topology, resonator_bands=bands, resonator_scatter=0.0
        )
        expected = reference_resonator_colors(topology.graph, len(bands))
        assert plan.resonator_freq == {
            key: bands[color] for key, color in expected.items()
        }
