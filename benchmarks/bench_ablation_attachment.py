"""Ablation — attachment-seeded vs GP-nearest first-block placement.

Paper Fig. 6c shows the first wire block legalized adjacent to its qubit
pad; without that seed the grown region can start mid-channel, leaving a
longer exposed connection trace (more bridges).  This bench runs
integration-aware legalization both ways and compares crossings and
trace-exposure hotspots.
"""

from __future__ import annotations

import pytest

from repro.core.config import QGDPConfig
from repro.frequency.hotspots import hotspot_proportion
from repro.legalization import BinGrid, integration_aware_legalize, legalize_qubits
from repro.metrics import total_clusters
from repro.placement import GlobalPlacer, build_layout
from repro.routing import count_crossings
from repro.topologies import get_topology


@pytest.mark.parametrize("topology_name", ["falcon", "aspenm"])
def test_attachment_seeding_ablation(benchmark, topology_name):
    cfg = QGDPConfig()
    topology = get_topology(topology_name)

    def run_variant(attach: bool):
        netlist, grid = build_layout(topology, cfg)
        GlobalPlacer(cfg).run(netlist, grid)
        legalize_qubits(netlist, grid, cfg, quantum=True)
        bins = BinGrid(grid)
        for qubit in netlist.qubits:
            bins.occupy_rect(qubit.rect, qubit.node_id)
        integration_aware_legalize(
            netlist.resonators, bins, netlist if attach else None
        )
        return {
            "crossings": count_crossings(netlist, bins).total,
            "clusters": total_clusters(netlist),
            "ph": hotspot_proportion(netlist, cfg.reach, cfg.delta_c),
        }

    def run_both():
        return {
            "attached": run_variant(True),
            "gp-nearest": run_variant(False),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    print()
    print(f"== attachment-seeding ablation on {topology_name} ==")
    for variant, row in results.items():
        print(
            f"  {variant:10s} X={row['crossings']:3d}  "
            f"clusters={row['clusters']:4d}  Ph={row['ph']:.2f}%"
        )

    # Attachment seeding never bridges more and never fragments more.
    assert (
        results["attached"]["crossings"]
        <= results["gp-nearest"]["crossings"] + 1
    )
    assert (
        results["attached"]["clusters"]
        <= results["gp-nearest"]["clusters"] + 1
    )
