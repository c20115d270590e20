"""Force-directed global placer with density spreading.

This is the substrate standing in for qPlacer/DREAMPlace GP [12], [13]
(see DESIGN.md).  It minimizes net wirelength (spring attraction) subject
to a spreading force from the bin-density map, with qubits softly anchored
to their topology-derived seeds.  The output is a *rough* placement: blocks
may overlap each other and qubit macros — exactly the input legalization
must clean up.

Pseudo connections (Fig. 5d) enter simply as extra nets, so running the
placer with snake vs. pseudo nets reproduces the paper's motivation
ablation (long stringy resonators vs. compact blobs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import QGDPConfig
from repro.geometry import SiteGrid
from repro.netlist.netlist import QuantumNetlist
from repro.netlist.pseudo import ConnectionStyle
from repro.placement.density import DensityMap
from repro.placement.wirelength import total_hpwl


@dataclass
class GlobalPlaceResult:
    """Summary of a global-placement run."""

    iterations: int
    hpwl: float
    max_bin_overflow: float


class GlobalPlacer:
    """Spring + density-spreading placer over the netlist's components."""

    def __init__(self, config: QGDPConfig = None) -> None:
        self.config = config or QGDPConfig()

    def run(
        self,
        netlist: QuantumNetlist,
        grid: SiteGrid,
        style: ConnectionStyle = ConnectionStyle.PSEUDO,
    ) -> GlobalPlaceResult:
        """Place all components in-place; returns a run summary.

        Qubits float on a soft anchor to their seeds, so GP can trade a
        little qubit displacement for wirelength, as qPlacer does.  The
        spreading noise is drawn from ``config.seed``.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        node_ids = [("q", q.index) for q in netlist.qubits]
        node_ids += [
            ("b", b.resonator_key, b.ordinal) for b in netlist.wire_blocks
        ]
        index_of = {nid: k for k, nid in enumerate(node_ids)}
        num_qubits = netlist.num_qubits
        n = len(node_ids)

        pos = np.zeros((n, 2))
        areas = np.zeros(n)
        for q in netlist.qubits:
            k = index_of[("q", q.index)]
            pos[k] = (q.x, q.y)
            areas[k] = q.rect.area
        for b in netlist.wire_blocks:
            k = index_of[("b", b.resonator_key, b.ordinal)]
            pos[k] = (b.x, b.y)
            areas[k] = b.rect.area
        anchors = pos[:num_qubits].copy()

        # Small symmetric noise so collinear seeds can spread sideways.
        pos[num_qubits:] += rng.normal(0.0, cfg.gp_noise, (n - num_qubits, 2))

        nets = netlist.nets(style)
        src = np.array([index_of[u] for u, _ in nets], dtype=int)
        dst = np.array([index_of[v] for _, v in nets], dtype=int)

        density = DensityMap(grid, bin_size=2.0 * cfg.lb)
        half = np.where(
            np.arange(n) < num_qubits, cfg.qubit_size / 2.0, cfg.lb / 2.0
        )

        step = cfg.gp_step
        for _ in range(cfg.gp_iterations):
            force = np.zeros_like(pos)
            # Net attraction (linear springs on 2-pin nets).
            delta = pos[dst] - pos[src]
            np.add.at(force, src, cfg.gp_attraction * delta)
            np.add.at(force, dst, -cfg.gp_attraction * delta)
            # Density spreading.
            density.deposit(pos[:, 0], pos[:, 1], areas)
            gx, gy = density.gradient_at(pos[:, 0], pos[:, 1])
            force[:, 0] -= cfg.gp_density * gx
            force[:, 1] -= cfg.gp_density * gy
            # Qubit anchors.
            force[:num_qubits] += cfg.gp_anchor * (anchors - pos[:num_qubits])

            # Capped, decaying step.
            norm = np.linalg.norm(force, axis=1, keepdims=True)
            cap = 1.5 * cfg.lb
            scale = np.minimum(1.0, cap / np.maximum(norm, 1e-12))
            pos += step * (force * scale)

            # Border clamp (Eq. 2).
            pos[:, 0] = np.clip(pos[:, 0], half, grid.width - half)
            pos[:, 1] = np.clip(pos[:, 1], half, grid.height - half)
            step *= 0.995

        self._write_back(netlist, node_ids, pos)
        density.deposit(pos[:, 0], pos[:, 1], areas)
        bin_cap = density.bin_size**2
        overflow = float(np.max(density.density) / bin_cap)
        positions = {nid: tuple(pos[k]) for nid, k in index_of.items()}
        return GlobalPlaceResult(
            iterations=cfg.gp_iterations,
            hpwl=total_hpwl(nets, positions),
            max_bin_overflow=overflow,
        )

    @staticmethod
    def _write_back(netlist: QuantumNetlist, node_ids: list, pos: np.ndarray) -> None:
        for k, nid in enumerate(node_ids):
            if nid[0] == "q":
                netlist.qubit(nid[1]).move_to(float(pos[k, 0]), float(pos[k, 1]))
            else:
                _, key, ordinal = nid
                block = netlist.resonator(*key).blocks[ordinal]
                block.move_to(float(pos[k, 0]), float(pos[k, 1]))
