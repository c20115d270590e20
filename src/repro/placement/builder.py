"""Instantiate a quantum netlist on a sized substrate for a topology.

The builder

1. creates qubit macros at scaled ideal positions,
2. creates one resonator per coupling edge, with wirelength scaled by
   frequency (a λ/4 resonator is longer at lower frequency) so Eq. 6
   yields the paper's ≈ 11-12 blocks per resonator,
3. allocates frequencies (graph coloring), and
4. sizes a site grid so total component area hits the configured
   utilization while adjacent qubits can still satisfy the quantum
   minimum spacing.
"""

from __future__ import annotations

import math

from repro.core.config import QGDPConfig
from repro.frequency.assignment import assign_frequencies
from repro.geometry import SiteGrid
from repro.netlist.components import Qubit, Resonator
from repro.netlist.netlist import QuantumNetlist
from repro.topologies.base import Topology

#: Centre frequency the reference resonator length is quoted at (GHz).
_REFERENCE_FREQ = 7.0


def closest_pair_distance(points) -> float:
    """``math.hypot`` of the closest pair of ``(x, y)`` points, or
    ``math.inf`` for fewer than two.

    A sweep over the points sorted by x: once a later point is at least
    the best distance away in x, so is every point after it, and
    ``hypot`` is never below its x gap.  The winning pair's distance is
    the same float whichever way round it is taken.
    """
    pts = sorted((x, y) for x, y in points)
    best = math.inf
    for i, (xa, ya) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            xb, yb = pts[j]
            dx = xb - xa
            if dx >= best:
                break
            d = math.hypot(dx, yb - ya)
            if d < best:
                best = d
    return best


def size_grid(topology: Topology, config: QGDPConfig, total_area: float) -> tuple:
    """Choose the substrate grid and the ideal→layout scale.

    Returns ``(grid, scale, offset)`` where layout position =
    ``(ideal - ideal_min + margin) * scale`` and ``grid`` is the
    :class:`~repro.geometry.SiteGrid` covering the die.

    The scale is the larger of (a) the utilization-driven scale and (b)
    the spacing-driven scale that lets the closest ideal qubit pair sit at
    ``qubit_size + min_qubit_spacing`` apart.  A one-qubit device has no
    pair, so its spacing scale is 0 and (a) sizes it.
    """
    xs = [p[0] for p in topology.ideal_positions.values()]
    ys = [p[1] for p in topology.ideal_positions.values()]
    ex = (max(xs) - min(xs)) + 2.0 * config.margin
    ey = (max(ys) - min(ys)) + 2.0 * config.margin

    scale_util = math.sqrt(total_area / (config.utilization * ex * ey))
    # The binding geometric constraint is the closest *pair* of qubits,
    # coupled or not (radial topologies place siblings closer than edges).
    min_pair = closest_pair_distance(topology.ideal_positions.values())
    scale_spacing = (
        config.qubit_size + config.min_qubit_spacing + config.lb
    ) / min_pair
    scale = max(scale_util, scale_spacing)

    cols = max(4, math.ceil(ex * scale / config.lb))
    rows = max(4, math.ceil(ey * scale / config.lb))
    grid = SiteGrid(cols=cols, rows=rows, lb=config.lb)
    offset = (min(xs), min(ys))
    return (grid, scale, offset)


def _resonator_wirelength(freq: float, config: QGDPConfig) -> float:
    """Frequency-dependent wirelength: ``L = L_ref * f_ref / f``."""
    return config.resonator_length * _REFERENCE_FREQ / freq


def build_layout(topology: Topology, config: QGDPConfig = None) -> tuple:
    """Build ``(netlist, grid)`` for a topology, ready for global placement.

    Qubits are placed at their scaled ideal positions (snapped to the site
    grid); resonators are partitioned into wire blocks seeded on the line
    between their endpoint qubits.  Frequencies are already assigned so
    every downstream stage can reason about hotspots.
    """
    config = config or QGDPConfig()
    netlist = QuantumNetlist(name=topology.name)

    # Qubits first so resonators can reference them; positions need the
    # grid, which needs total area, which needs block counts — so assign
    # frequencies on a provisional netlist, then size the grid.
    for index in range(topology.num_qubits):
        netlist.add_qubit(
            Qubit(index=index, w=config.qubit_size, h=config.qubit_size)
        )
    for qi, qj in topology.edges:
        # Wirelength filled after frequency assignment; placeholder 1.0.
        netlist.add_resonator(Resonator(qi=qi, qj=qj, wirelength=1.0))

    plan = assign_frequencies(
        netlist,
        topology,
        config.qubit_bands,
        config.resonator_bands,
        seed=config.seed,
    )
    total_blocks = 0
    for resonator in netlist.resonators:
        resonator.wirelength = _resonator_wirelength(
            plan.resonator_freq[resonator.key], config
        )
        total_blocks += math.ceil(
            config.pad * resonator.wirelength / (config.lb * config.lb)
        )

    qubit_area = topology.num_qubits * config.qubit_size**2
    block_area = total_blocks * config.lb**2
    grid, scale, offset = size_grid(topology, config, qubit_area + block_area)

    for index, (ix, iy) in topology.ideal_positions.items():
        x = (ix - offset[0] + config.margin) * scale
        y = (iy - offset[1] + config.margin) * scale
        qubit = netlist.qubit(index)
        snapped = grid.clamp_rect(qubit.rect.moved_to(x, y))
        qubit.move_to(snapped.cx, snapped.cy)

    netlist.partition_all(config.pad, config.lb)
    return (netlist, grid)
