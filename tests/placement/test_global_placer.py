"""Global placer behaviour."""

import pytest

from repro.core.config import QGDPConfig
from repro.netlist import ConnectionStyle
from repro.placement import GlobalPlacer, build_layout, total_hpwl
from repro.topologies import get_topology


@pytest.fixture(scope="module")
def placed():
    cfg = QGDPConfig(gp_iterations=60, seed=3)
    netlist, grid = build_layout(get_topology("falcon"), cfg)
    result = GlobalPlacer(cfg).run(netlist, grid)
    return (cfg, netlist, grid, result)


def test_components_stay_in_border(placed):
    _cfg, netlist, grid, _result = placed
    border = grid.border
    for qubit in netlist.qubits:
        assert qubit.rect.inside(border, tol=1e-6)
    for block in netlist.wire_blocks:
        assert block.rect.inside(border, tol=1e-6)


def test_result_reports_positive_hpwl(placed):
    _cfg, _netlist, _grid, result = placed
    assert result.hpwl > 0
    assert result.iterations == 60
    assert result.max_bin_overflow > 0


def test_determinism_same_seed():
    cfg = QGDPConfig(gp_iterations=30, seed=5)
    topo = get_topology("grid")
    nl1, g1 = build_layout(topo, cfg)
    GlobalPlacer(cfg).run(nl1, g1)
    nl2, g2 = build_layout(topo, cfg)
    GlobalPlacer(cfg).run(nl2, g2)
    assert nl1.snapshot() == nl2.snapshot()


def test_different_seeds_differ():
    topo = get_topology("grid")
    snapshots = []
    for seed in (5, 6):
        cfg = QGDPConfig(gp_iterations=30, seed=seed)
        netlist, grid = build_layout(topo, cfg)
        GlobalPlacer(cfg).run(netlist, grid)
        snapshots.append(netlist.snapshot())
    assert snapshots[0] != snapshots[1]


def test_gp_improves_wirelength_over_seed():
    cfg = QGDPConfig(gp_iterations=120, seed=1)
    topo = get_topology("falcon")
    netlist, grid = build_layout(topo, cfg)
    nets = netlist.nets(ConnectionStyle.PSEUDO)
    before = total_hpwl(
        nets, {nid: pos for nid, pos in netlist.snapshot().items()}
    )
    result = GlobalPlacer(cfg).run(netlist, grid)
    assert result.hpwl < before


def test_pseudo_style_tightens_blocks():
    """Pseudo connections give a more compact post-GP resonator footprint."""
    cfg = QGDPConfig(gp_iterations=120, seed=2)
    topo = get_topology("falcon")

    def mean_spread(style):
        netlist, grid = build_layout(topo, cfg)
        GlobalPlacer(cfg).run(netlist, grid, style=style)
        spreads = []
        for r in netlist.resonators:
            xs = [b.x for b in r.blocks]
            ys = [b.y for b in r.blocks]
            spreads.append((max(xs) - min(xs)) + (max(ys) - min(ys)))
        return sum(spreads) / len(spreads)

    assert mean_spread(ConnectionStyle.PSEUDO) <= mean_spread(
        ConnectionStyle.SNAKE
    )
