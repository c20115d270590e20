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
from scipy.sparse import csr_matrix

from repro.core.config import QGDPConfig
from repro.geometry import SiteGrid
from repro.netlist.netlist import QuantumNetlist
from repro.netlist.pseudo import ConnectionStyle, net_pattern
from repro.placement.density import DensityMap


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

        # One contiguous array per axis.  Node k is the k-th qubit by
        # index, then the wire blocks in netlist order.
        qubits, blocks = netlist.qubits, netlist.wire_blocks
        components = [*qubits, *blocks]
        num_qubits = len(qubits)
        n = len(components)
        x = np.array([c.x for c in components], dtype=np.float64)
        y = np.array([c.y for c in components], dtype=np.float64)
        areas = np.array(
            [q.w * q.h for q in qubits] + [b.size * b.size for b in blocks],
            dtype=np.float64,
        )
        anchor_x = x[:num_qubits].copy()
        anchor_y = y[:num_qubits].copy()

        # Small symmetric noise so collinear seeds can spread sideways.
        noise = rng.normal(0.0, cfg.gp_noise, (n - num_qubits, 2))
        x[num_qubits:] += noise[:, 0]
        y[num_qubits:] += noise[:, 1]

        src, dst = net_index_arrays(netlist, style)
        springs = spring_matrix(src, dst, n)

        density = DensityMap(grid, bin_size=2.0 * cfg.lb)
        half = np.where(
            np.arange(n) < num_qubits, cfg.qubit_size / 2.0, cfg.lb / 2.0
        )
        x_max = grid.width - half
        y_max = grid.height - half
        cap = 1.5 * cfg.lb

        step = cfg.gp_step
        for _ in range(cfg.gp_iterations):
            # Net attraction (linear springs on 2-pin nets).
            fx = springs @ (cfg.gp_attraction * (x[dst] - x[src]))
            fy = springs @ (cfg.gp_attraction * (y[dst] - y[src]))
            # Density spreading, gathered at the bins the deposit used.
            gx, gy = density.gradient_at(*density.deposit(x, y, areas))
            fx -= cfg.gp_density * gx
            fy -= cfg.gp_density * gy
            # Qubit anchors.
            fx[:num_qubits] += cfg.gp_anchor * (anchor_x - x[:num_qubits])
            fy[:num_qubits] += cfg.gp_anchor * (anchor_y - y[:num_qubits])

            # Capped, decaying step; the norm adds x² + y² in the order
            # np.linalg.norm(axis=1) does on the two columns.
            norm = np.sqrt(fx * fx + fy * fy)
            scale = np.minimum(1.0, cap / np.maximum(norm, 1e-12))
            x += step * (fx * scale)
            y += step * (fy * scale)

            # Border clamp (Eq. 2): np.clip's values without its wrapper.
            np.minimum(np.maximum(x, half, out=x), x_max, out=x)
            np.minimum(np.maximum(y, half, out=y), y_max, out=y)
            step *= 0.995

        for component, cx, cy in zip(components, x.tolist(), y.tolist()):
            component.move_to(cx, cy)
        density.deposit(x, y, areas)
        bin_cap = density.bin_size**2
        overflow = float(np.max(density.density) / bin_cap)
        # total_hpwl's per-net spans and its sequential (not pairwise) sum.
        spans = np.abs(x[src] - x[dst]) + np.abs(y[src] - y[dst])
        return GlobalPlaceResult(
            iterations=cfg.gp_iterations,
            hpwl=float(sum(spans.tolist())),
            max_bin_overflow=overflow,
        )


def net_index_arrays(netlist: QuantumNetlist, style: ConnectionStyle) -> tuple:
    """``(src, dst)`` node indices of ``netlist.nets(style)``, net for net.

    Node ``k`` is the ``k``-th qubit by index, then the wire blocks in
    netlist order.  Each resonator's local pairs come from one
    :func:`~repro.netlist.pseudo.net_pattern` per block count and are
    mapped to node indices with array lookups, so no node-id tuple is
    built.
    """
    resonators = netlist.resonators
    if not resonators:
        empty = np.zeros(0, dtype=np.intp)
        return (empty, empty)
    position = {q.index: k for k, q in enumerate(netlist.qubits)}
    counts = np.array([r.num_blocks for r in resonators], dtype=np.intp)
    patterns = {
        n: np.array(net_pattern(style, n), dtype=np.intp)
        for n in set(counts.tolist())
    }
    per_resonator = [patterns[n] for n in counts.tolist()]
    local = np.concatenate(per_resonator)
    owner = np.repeat(
        np.arange(len(resonators)), [len(pairs) for pairs in per_resonator]
    )
    first_block = netlist.num_qubits + np.cumsum(counts) - counts
    qi = np.array([position[r.qi] for r in resonators], dtype=np.intp)
    qj = np.array([position[r.qj] for r in resonators], dtype=np.intp)
    node = np.where(
        local == 0,
        qi[owner, None],
        np.where(
            local > counts[owner, None],
            qj[owner, None],
            first_block[owner, None] + local - 1,
        ),
    )
    return (node[:, 0], node[:, 1])


def spring_matrix(src: np.ndarray, dst: np.ndarray, n: int) -> csr_matrix:
    """The ``n × m`` matrix that scatters ``m`` net pulls onto their nodes.

    ``springs @ (a·d)``, ``d = coord[dst] − coord[src]``, adds ``+a·d`` to
    each net's source and ``−a·d`` to its sink.  Row ``k`` holds ``+1``
    for each net whose source is ``k``, in net order, then ``−1`` for
    each net whose sink is ``k``, in net order: the stable argsort of
    ``concat(src, dst)``.  scipy's CSR product sums each row from 0.0 in
    stored entry order and ``±1·p`` is exact, so every node adds the
    terms ``np.add.at`` over ``src`` then ``dst`` added, in its order,
    and the forces are bit-identical to that reference
    (``tests/placement/test_global_placer_parity.py``).  The matrix is
    never canonicalized: sorting its indices or summing duplicates would
    reorder the sums.  With no nets it has no columns, and the product
    is float zeros.
    """
    m = len(src)
    ends = np.concatenate((src, dst))
    order = np.argsort(ends, kind="stable")
    source = order < m
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    return csr_matrix(
        (np.where(source, 1.0, -1.0), np.where(source, order, order - m), indptr),
        shape=(n, m),
    )
