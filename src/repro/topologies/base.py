"""Topology container shared by all device families."""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx


@dataclass
class Topology:
    """A device connectivity topology plus ideal qubit geometry.

    Parameters
    ----------
    name:
        Registry key, e.g. ``"falcon"``.
    display_name:
        Human-readable name used in reports, e.g. ``"Falcon"``.
    num_qubits:
        Number of physical qubits.
    edges:
        Coupling pairs ``(qi, qj)`` with ``qi < qj`` — one resonator each.
    ideal_positions:
        Map qubit index → ``(x, y)`` in abstract unit-cell coordinates;
        the global placer scales these onto the substrate.
    description:
        Table I description string.
    """

    name: str
    display_name: str
    num_qubits: int
    edges: list
    ideal_positions: dict
    description: str = ""
    _graph: nx.Graph = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = set()
        for qi, qj in self.edges:
            if not (0 <= qi < self.num_qubits and 0 <= qj < self.num_qubits):
                raise ValueError(f"edge ({qi},{qj}) outside 0..{self.num_qubits - 1}")
            if qi >= qj:
                raise ValueError(f"edges must be canonical (qi < qj), got ({qi},{qj})")
            if (qi, qj) in seen:
                raise ValueError(f"duplicate edge ({qi},{qj})")
            seen.add((qi, qj))
        missing = set(range(self.num_qubits)) - set(self.ideal_positions)
        if missing:
            raise ValueError(f"qubits without ideal positions: {sorted(missing)}")
        # Coincident qubits have no spacing-driven layout scale.
        owner = {}
        for qubit, position in self.ideal_positions.items():
            other = owner.setdefault(tuple(position), qubit)
            if other != qubit:
                raise ValueError(
                    f"qubits {other} and {qubit} share the ideal position "
                    f"{tuple(position)}"
                )

    @property
    def num_edges(self) -> int:
        """Number of couplers (= resonators)."""
        return len(self.edges)

    @property
    def graph(self) -> nx.Graph:
        """The coupling graph (cached)."""
        if self._graph is None:
            graph = nx.Graph()
            graph.add_nodes_from(range(self.num_qubits))
            graph.add_edges_from(self.edges)
            self._graph = graph
        return self._graph

    def degree(self, qubit: int) -> int:
        """Coupling degree of a qubit."""
        return self.graph.degree[qubit]

    def neighbors(self, qubit: int) -> list:
        """Coupled qubits, sorted."""
        return sorted(self.graph.neighbors(qubit))

    def extent(self) -> tuple:
        """``(width, height)`` of the ideal coordinate bounding box."""
        xs = [p[0] for p in self.ideal_positions.values()]
        ys = [p[1] for p in self.ideal_positions.values()]
        return (max(xs) - min(xs), max(ys) - min(ys))

    def edge_length(self, qi: int, qj: int) -> float:
        """Euclidean length of a coupler in ideal coordinates."""
        xi, yi = self.ideal_positions[qi]
        xj, yj = self.ideal_positions[qj]
        return ((xi - xj) ** 2 + (yi - yj) ** 2) ** 0.5
