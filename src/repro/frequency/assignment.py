"""Frequency allocation for fixed-frequency transmons and their resonators.

IBM-style fixed-frequency devices use a small set of qubit frequency groups
laid out so that coupled qubits never share a group (a graph-coloring
problem on the coupling graph).  Readout/coupler resonators sit several GHz
above the qubits and are likewise detuned from one another locally: a
resonator's *hard* neighbours are the couplers sharing a qubit with it
(its line-graph neighbours) and its *soft* neighbours the couplers two
line-graph hops away.  Both sets are read off one qubit → incident
couplers index, without building the line graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.netlist.netlist import QuantumNetlist
from repro.topologies.base import Topology

#: Default 5-group qubit frequency plan, GHz (IBM-like 5.0-5.3 GHz window).
DEFAULT_QUBIT_BANDS = (5.00, 5.07, 5.14, 5.21, 5.28)

#: Default resonator bands, GHz (coupler bus band ~7 GHz).  Resonators are
#: detuned against their *distance-2* line-graph neighbourhood (see
#: :func:`assign_frequencies`); five bands cannot cover that neighbourhood
#: on dense devices, so some planned collisions remain — as on real chips.
DEFAULT_RESONATOR_BANDS = (6.80, 6.90, 7.00, 7.10, 7.20)

#: Fabrication frequency scatter (1σ, GHz).  Fixed-frequency transmons
#: cannot be retuned post-fab; Josephson-junction spread moves qubit
#: frequencies by tens of MHz and resonator geometry tolerances by ~10 MHz
#: (the frequency-collision problem, Brink et al.).
DEFAULT_QUBIT_SCATTER = 0.015
DEFAULT_RESONATOR_SCATTER = 0.010


@dataclass
class FrequencyPlan:
    """The outcome of frequency allocation.

    ``qubit_freq`` maps qubit index → GHz; ``resonator_freq`` maps the
    canonical resonator key → GHz.
    """

    qubit_freq: dict = field(default_factory=dict)
    resonator_freq: dict = field(default_factory=dict)

    def collisions(self, topology: Topology) -> list:
        """Coupled qubit pairs that ended up in the same frequency group.

        A correct plan returns an empty list whenever the coupling graph is
        colorable with the available bands.
        """
        return [
            (qi, qj)
            for qi, qj in topology.edges
            if self.qubit_freq[qi] == self.qubit_freq[qj]
        ]


def _greedy_coloring(graph: nx.Graph, num_colors: int) -> dict:
    """Greedy largest-degree-first coloring, wrapping when colors run out.

    Wrapping keeps the allocation total even on graphs whose chromatic
    number exceeds the band count; the wrapped vertices are exactly the
    frequency collisions a real device would have to detune around.
    """
    coloring = nx.greedy_color(graph, strategy="largest_first")
    return {node: color % num_colors for node, color in coloring.items()}


def _coupler_neighbours(graph: nx.Graph) -> tuple:
    """Hard and soft neighbour sets of every coupler, keyed ``(qi, qj)``.

    Hard: the couplers sharing a qubit with it.  Soft: the couplers
    touching either endpoint or a neighbour of one, minus the hard ones
    and itself — its distance-2 line-graph neighbourhood.
    """
    couplers = [(min(u, v), max(u, v)) for u, v in graph.edges]
    incident = {}  # qubit -> couplers touching it
    for coupler in couplers:
        for qubit in coupler:
            incident.setdefault(qubit, set()).add(coupler)
    hard = {}
    soft = {}
    for coupler in couplers:
        qa, qb = coupler
        near = (incident[qa] | incident[qb]) - {coupler}
        hard[coupler] = near
        ring = {qubit for other in near for qubit in other}
        reach = set().union(*(incident[qubit] for qubit in ring))
        soft[coupler] = reach - near - {coupler}
    return (hard, soft)


def _two_tier_coloring(hard: dict, soft: dict, num_colors: int) -> dict:
    """Conflict-minimizing coloring with hard and soft neighbour sets.

    ``hard[node]`` (resonators sharing a qubit) must be detuned at all
    cost; ``soft[node]`` (distance-2 neighbourhood) should be when bands
    suffice.  Each node greedily takes the band minimizing
    ``1000 * hard_conflicts + soft_conflicts`` — a real frequency planner
    never sacrifices a direct-neighbour detuning to fix a far one.  A
    band's cost is a sum of integers, so neighbour order cannot change a
    color.
    """
    order = sorted(
        hard, key=lambda node: (-(len(hard[node]) + len(soft[node])), node)
    )
    colors = {}
    for node in order:
        cost = [0] * num_colors
        for nbr in hard[node]:
            if nbr in colors:
                cost[colors[nbr]] += 1000
        for nbr in soft[node]:
            if nbr in colors:
                cost[colors[nbr]] += 1
        best = min(range(num_colors), key=lambda c: (cost[c], c))
        colors[node] = best
    return colors


def assign_frequencies(
    netlist: QuantumNetlist,
    topology: Topology,
    qubit_bands: tuple = DEFAULT_QUBIT_BANDS,
    resonator_bands: tuple = DEFAULT_RESONATOR_BANDS,
    qubit_scatter: float = DEFAULT_QUBIT_SCATTER,
    resonator_scatter: float = DEFAULT_RESONATOR_SCATTER,
    seed: int = 0,
) -> FrequencyPlan:
    """Allocate frequencies and write them onto the netlist components.

    Qubits are colored on the coupling graph; resonators against their
    hard and soft neighbours (:func:`_coupler_neighbours`) — frequency
    planners detune a resonator against everything within two coupler
    hops, because that is the neighbourhood a well-placed (unified,
    in-channel) resonator can physically touch.
    The assigned frequencies are stored on
    :class:`~repro.netlist.components.Qubit`,
    :class:`~repro.netlist.components.Resonator` and every wire block, and
    returned as a :class:`FrequencyPlan`.
    """
    if not qubit_bands or not resonator_bands:
        raise ValueError("frequency band lists must be non-empty")
    if qubit_scatter < 0 or resonator_scatter < 0:
        raise ValueError("frequency scatter must be non-negative")
    plan = FrequencyPlan()
    rng = np.random.default_rng(seed)

    qubit_colors = _greedy_coloring(topology.graph, len(qubit_bands))
    for qubit in netlist.qubits:
        freq = qubit_bands[qubit_colors[qubit.index]]
        freq += float(rng.normal(0.0, qubit_scatter)) if qubit_scatter else 0.0
        qubit.frequency = freq
        plan.qubit_freq[qubit.index] = freq

    hard, soft = _coupler_neighbours(topology.graph)
    res_colors = _two_tier_coloring(hard, soft, len(resonator_bands))
    for resonator in netlist.resonators:
        freq = resonator_bands[res_colors[resonator.key]]
        freq += (
            float(rng.normal(0.0, resonator_scatter)) if resonator_scatter else 0.0
        )
        resonator.frequency = freq
        plan.resonator_freq[resonator.key] = freq
        for block in resonator.blocks:
            block.frequency = freq
    return plan
