"""Layout builder: substrate sizing and netlist instantiation."""

import math

import numpy as np
import pytest

from repro.core.config import QGDPConfig
from repro.core.pipeline import QGDPFlow
from repro.placement import build_layout, size_grid
from repro.placement.builder import closest_pair_distance
from repro.topologies import PAPER_TOPOLOGIES, Topology, get_topology, grid_topology


@pytest.mark.parametrize("name", PAPER_TOPOLOGIES)
def test_build_layout_counts(name):
    cfg = QGDPConfig(gp_iterations=1)
    topo = get_topology(name)
    netlist, grid = build_layout(topo, cfg)
    assert netlist.num_qubits == topo.num_qubits
    assert netlist.num_resonators == topo.num_edges
    # Eq. 6 with the default reference length gives 11-12 blocks each.
    for resonator in netlist.resonators:
        assert resonator.num_blocks in (11, 12)


@pytest.mark.parametrize("name", PAPER_TOPOLOGIES)
def test_qubits_seeded_inside_border(name):
    cfg = QGDPConfig(gp_iterations=1)
    netlist, grid = build_layout(get_topology(name), cfg)
    border = grid.border
    for qubit in netlist.qubits:
        assert qubit.rect.inside(border)


def test_cell_counts_near_paper_table3():
    # Paper Table III #Cells: grid 490, falcon 354, eagle 1801.
    paper = {"grid": 490, "falcon": 354, "eagle": 1801}
    cfg = QGDPConfig(gp_iterations=1)
    for name, expected in paper.items():
        netlist, _ = build_layout(get_topology(name), cfg)
        assert abs(netlist.num_cells - expected) / expected < 0.06


def test_utilization_not_exceeded():
    cfg = QGDPConfig(gp_iterations=1)
    for name in ("grid", "falcon"):
        netlist, grid = build_layout(get_topology(name), cfg)
        total_area = sum(q.rect.area for q in netlist.qubits) + sum(
            b.rect.area for b in netlist.wire_blocks
        )
        assert total_area <= cfg.utilization * grid.width * grid.height * 1.02


def test_min_pair_spacing_feasible():
    """Closest seeded qubit pair leaves room for size + spacing."""
    cfg = QGDPConfig(gp_iterations=1)
    for name in PAPER_TOPOLOGIES:
        netlist, _grid = build_layout(get_topology(name), cfg)
        qs = netlist.qubits
        required = cfg.qubit_size + cfg.min_qubit_spacing
        min_dist = min(
            math.hypot(a.x - b.x, a.y - b.y)
            for i, a in enumerate(qs)
            for b in qs[i + 1 :]
        )
        assert min_dist >= required - 1.0  # snapping slack of one site


def test_size_grid_respects_total_area():
    cfg = QGDPConfig(gp_iterations=1)
    topo = get_topology("grid")
    grid, scale, offset = size_grid(topo, cfg, total_area=700.0)
    assert grid.width * grid.height * cfg.utilization >= 700.0 * 0.95
    assert scale > 0
    assert offset == (0.0, 0.0)


def test_resonator_wirelength_scales_with_frequency():
    cfg = QGDPConfig(gp_iterations=1)
    netlist, _ = build_layout(get_topology("grid"), cfg)
    for r in netlist.resonators:
        expected = cfg.resonator_length * 7.0 / r.frequency
        assert r.wirelength == pytest.approx(expected)


def test_one_qubit_grid_uses_utilization_scale():
    # One qubit has no pair to space, so only utilization sizes the die.
    cfg = QGDPConfig()
    topo = Topology("one", "One", 1, [], {0: (3.0, 4.0)})
    area = 9.0
    grid, scale, offset = size_grid(topo, cfg, area)
    side = 2.0 * cfg.margin
    assert scale == math.sqrt(area / (cfg.utilization * side * side))
    assert offset == (3.0, 4.0)
    assert (grid.cols, grid.rows) == (4, 4)


@pytest.mark.parametrize("engine", ["qgdp", "q-abacus", "tetris"])
def test_one_qubit_flow_is_legal(engine):
    topo = Topology("one", "One", 1, [], {0: (0.0, 0.0)})
    result = QGDPFlow(topo).run(engine, detailed=True)
    for stage in result.stages[1:]:
        assert stage.metrics["legality_violations"] == 0
        assert stage.metrics["spacing_violations"] == 0
    (qubit,) = result.final.positions
    assert qubit == ("q", 0)


def brute_force_closest_pair(positions: list) -> float:
    """The all-pairs generator ``size_grid`` used before the sort sweep."""
    return min(
        (
            math.hypot(xa - xb, ya - yb)
            for i, (xa, ya) in enumerate(positions)
            for (xb, yb) in positions[i + 1 :]
        ),
        default=math.inf,
    )


@pytest.mark.parametrize(
    "topology",
    [get_topology(name) for name in PAPER_TOPOLOGIES]
    + [grid_topology(side) for side in range(2, 25) if side != 5]  # 5: "grid"
    + [Topology("one", "One", 1, [], {0: (3.0, 4.0)})],
    ids=lambda t: f"{t.name}-{t.num_qubits}q",
)
def test_closest_pair_sweep_matches_all_pairs(topology):
    positions = list(topology.ideal_positions.values())
    got = closest_pair_distance(positions)
    assert got.hex() == brute_force_closest_pair(positions).hex()


def test_closest_pair_sweep_with_exact_distance_ties():
    """Lattice points (many pairs at exactly the minimum), duplicates,
    mirrored pairs and free floats: the same float as the all-pairs min."""
    rng = np.random.default_rng(3)
    for trial in range(300):
        n = int(rng.integers(0, 40))
        if trial % 3 == 0:
            points = rng.integers(-5, 6, (n, 2)) * 0.5
        elif trial % 3 == 1:
            points = rng.integers(0, 4, (n, 2)) * np.array([3.0, 4.0])
        else:
            points = rng.uniform(-10.0, 10.0, (n, 2))
            points[1::4] = -points[::4][: len(points[1::4])]
        positions = [tuple(p) for p in points.tolist()]
        got = closest_pair_distance(positions)
        assert got.hex() == brute_force_closest_pair(positions).hex()
    assert closest_pair_distance([]) == math.inf
    assert closest_pair_distance([(1.0, 2.0), (1.0, 2.0)]) == 0.0
