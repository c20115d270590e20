"""Initial logical → physical qubit mapping."""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.topologies.base import Topology


def random_mapping(
    circuit: QuantumCircuit, topology: Topology, seed: int
) -> dict:
    """Random *connected-region* mapping (the paper's 50-mapping protocol).

    A uniformly random injective map would scatter logical qubits across
    the die and drown every layout in SWAP noise; real compilers place
    programs on connected subregions.  We grow a random connected region
    (randomized BFS from a random start) and assign logical qubits to it
    so that heavily interacting logical pairs land on adjacent physical
    qubits where possible.
    """
    if circuit.num_qubits > topology.num_qubits:
        raise ValueError(
            f"{circuit.name} needs {circuit.num_qubits} qubits, "
            f"{topology.name} has {topology.num_qubits}"
        )
    rng = np.random.default_rng(seed)
    graph = topology.graph
    n = circuit.num_qubits

    start = int(rng.integers(topology.num_qubits))
    region = [start]
    frontier = set(graph.neighbors(start))
    while len(region) < n:
        if not frontier:  # disconnected leftovers: jump to a random free qubit
            free = [q for q in range(topology.num_qubits) if q not in region]
            frontier = {free[int(rng.integers(len(free)))]}
        pick = sorted(frontier)[int(rng.integers(len(frontier)))]
        region.append(pick)
        frontier |= set(graph.neighbors(pick))
        frontier -= set(region)

    # Assign interacting logical qubits to adjacent region slots greedily.
    interactions = {}
    for a, b in circuit.two_qubit_pairs():
        key = (min(a, b), max(a, b))
        interactions[key] = interactions.get(key, 0) + 1
    weight = [0] * n
    for (a, b), count in interactions.items():
        weight[a] += count
        weight[b] += count
    order = sorted(range(n), key=lambda q: (-weight[q], q))

    mapping = {}
    free_slots = set(region)
    for logical in order:
        partners = [
            mapping[other]
            for (a, b) in interactions
            for other in ((b,) if a == logical else (a,) if b == logical else ())
            if other in mapping
        ]
        if partners:
            slot = min(
                free_slots,
                key=lambda p: (
                    sum(_distance(topology, p, q) for q in partners),
                    p,
                ),
            )
        else:
            slot = sorted(free_slots)[int(rng.integers(len(free_slots)))]
        mapping[logical] = slot
        free_slots.discard(slot)
    return mapping


def _distance(topology: Topology, a: int, b: int) -> int:
    """Memoized hop distance on the coupling graph."""
    return len(_shortest_path_cache(topology, a, b)) - 1


def greedy_mapping(circuit: QuantumCircuit, topology: Topology) -> dict:
    """Interaction-aware greedy mapping (used by examples and ablations).

    Places the most-interacting logical qubit on the highest-degree
    physical qubit, then repeatedly maps the logical qubit with the most
    already-mapped partners onto the free physical qubit adjacent to them.
    """
    if circuit.num_qubits > topology.num_qubits:
        raise ValueError(
            f"{circuit.name} needs {circuit.num_qubits} qubits, "
            f"{topology.name} has {topology.num_qubits}"
        )
    interactions = {}
    for a, b in circuit.two_qubit_pairs():
        interactions[(min(a, b), max(a, b))] = (
            interactions.get((min(a, b), max(a, b)), 0) + 1
        )
    weight = [0] * circuit.num_qubits
    for (a, b), count in interactions.items():
        weight[a] += count
        weight[b] += count

    graph = topology.graph
    order = sorted(range(circuit.num_qubits), key=lambda q: -weight[q])
    mapping = {}
    used = set()
    for logical in order:
        partners = [
            mapping[other]
            for (a, b) in interactions
            for other in ((b,) if a == logical else (a,) if b == logical else ())
            if other in mapping
        ]
        candidates = set(range(topology.num_qubits)) - used
        if partners:
            best = min(
                candidates,
                key=lambda p: (
                    sum(
                        len(_shortest_path_cache(topology, p, q))
                        for q in partners
                    ),
                    -graph.degree[p],
                    p,
                ),
            )
        else:
            best = max(candidates, key=lambda p: (graph.degree[p], -p))
        mapping[logical] = best
        used.add(best)
    return mapping


def _shortest_path_cache(topology: Topology, a: int, b: int) -> list:
    """Memoized shortest path between physical qubits ``a`` and ``b``.

    The one path function of the compiler: mapping and routing both take
    their paths from it.  Topology graphs are static per run; the memo
    lives in the graph's own attribute dict, so it is freed with its
    graph and can never serve one topology's paths to another.  Raises
    ``ValueError`` when ``a`` and ``b`` lie in different components of a
    disconnected coupling graph.
    """
    graph = topology.graph
    memo = graph.graph.setdefault("_shortest_paths", {})
    if (a, b) not in memo:
        try:
            memo[(a, b)] = nx.shortest_path(graph, a, b)
        except nx.NetworkXNoPath:
            raise ValueError(
                f"{topology.name}: no path between physical qubits {a} and {b}"
            ) from None
    return memo[(a, b)]
