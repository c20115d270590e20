"""Resonator integration metrics: cluster totals and Iedge (Table III).

``counts`` lets a caller that already ran the batched cluster pass
(:func:`~repro.netlist.clusters.block_cluster_map`) hand in its
``resonator.key`` → ``|C_e|`` map instead of recounting the layout.
"""

from __future__ import annotations

from repro.netlist.clusters import cluster_count_map
from repro.netlist.netlist import QuantumNetlist


def total_clusters(
    netlist: QuantumNetlist, lb: float = 1.0, counts: dict = None
) -> int:
    """``Σ_e |C_e|`` — the Eq. 3 objective over the whole layout."""
    if counts is None:
        counts = cluster_count_map(netlist.resonators, lb)
    return sum(counts.values())


def integration_ratio(
    netlist: QuantumNetlist, lb: float = 1.0, counts: dict = None
) -> tuple:
    """``Iedge`` as ``(unified, total)`` — e.g. (37, 40) reads "37/40"."""
    if counts is None:
        counts = cluster_count_map(netlist.resonators, lb)
    unified = sum(1 for count in counts.values() if count == 1)
    return (unified, netlist.num_resonators)
