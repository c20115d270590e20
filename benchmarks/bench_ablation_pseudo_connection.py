"""Ablation — pseudo connections vs snake connections (Fig. 5).

The paper motivates pseudo connections by the stringy post-GP resonator
footprint the snake netlist produces: harder legalization (more
displacement), more clusters, larger crosstalk perimeter.  This bench runs
the same flow under both net styles and compares resonator legalization
displacement, cluster count and Ph.
"""

from __future__ import annotations

import pytest

from repro.core.config import QGDPConfig
from repro.frequency.hotspots import hotspot_proportion
from repro.legalization import get_engine, run_legalization
from repro.metrics import displacement_stats, total_clusters
from repro.netlist import ConnectionStyle
from repro.placement import GlobalPlacer, build_layout
from repro.topologies import get_topology


#: Acceptable pseudo/snake displacement ratio per topology.  On Falcon the
#: compact blobs legalize with clearly less movement; the sparse 5x5 grid
#: is a wash (both styles legalize easily), so only a loose bound applies.
_DISPLACEMENT_RATIO = {"falcon": 1.05, "grid": 1.35}


@pytest.mark.parametrize("topology_name", ["falcon", "grid"])
def test_pseudo_connection_ablation(benchmark, topology_name):
    cfg = QGDPConfig()
    topology = get_topology(topology_name)

    def run_style(style):
        netlist, grid = build_layout(topology, cfg)
        GlobalPlacer(cfg).run(netlist, grid, style=style)
        gp_positions = netlist.snapshot()
        run_legalization(netlist, grid, get_engine("qgdp"), cfg)
        moves = displacement_stats(gp_positions, netlist.snapshot(), prefix="b")
        return {
            "displacement": moves.total,
            "clusters": total_clusters(netlist),
            "ph": hotspot_proportion(netlist, cfg.reach, cfg.delta_c),
        }

    def run_both():
        return {
            "pseudo": run_style(ConnectionStyle.PSEUDO),
            "snake": run_style(ConnectionStyle.SNAKE),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    print()
    print(f"== pseudo-connection ablation on {topology_name} ==")
    for style, row in results.items():
        print(
            f"  {style:6s} block displacement {row['displacement']:8.1f}  "
            f"clusters {row['clusters']:4d}  Ph {row['ph']:.2f}%"
        )

    # Pseudo connections make legalization gentler: less block movement
    # (strict on the congested Falcon, loose on the easy grid).
    assert (
        results["pseudo"]["displacement"]
        <= results["snake"]["displacement"] * _DISPLACEMENT_RATIO[topology_name]
    )
    # And never fragment more.
    assert results["pseudo"]["clusters"] <= results["snake"]["clusters"] + 1
