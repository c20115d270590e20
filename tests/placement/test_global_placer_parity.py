"""The GP force loop and ``DensityMap`` against ``np.add.at`` references.

``GlobalPlacer.run`` keeps x and y as separate arrays and scatters the
spring forces with one product per axis by a CSR spring matrix;
``DensityMap.deposit`` is one ``np.bincount`` over flat bin indices, and
its bins feed the gradient gather, which slices the smoothed map into
reused buffers.  The references below are the two-column ``np.add.at``
loop, its tuple nets, positions dict and ``total_hpwl``, and the deposit
and gradient gather they replaced, kept verbatim, and every output must
match them bit for bit.  The spring product is also checked against the
``np.bincount`` scatter it replaced, and the smoothing and gradient
against the ``np.pad`` blur and ``np.gradient``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import QGDPConfig
from repro.geometry import SiteGrid
from repro.netlist import ConnectionStyle
from repro.placement import DensityMap, GlobalPlacer, build_layout, total_hpwl
from repro.placement.global_placer import net_index_arrays, spring_matrix
from repro.topologies import PAPER_TOPOLOGIES, Topology, get_topology, grid_topology


class ReferenceDensityMap(DensityMap):
    """``DensityMap`` with the ``np.add.at`` deposit and the gradient
    gather that re-bins the positions it is given."""

    def deposit(self, xs, ys, areas):
        self._density.fill(0.0)
        bx, by = self.bin_of(xs, ys)
        np.add.at(self._density, (by, bx), areas)

    def gradient_at(self, xs: np.ndarray, ys: np.ndarray) -> tuple:
        """Smoothed density gradient sampled at cell centres.

        Returns ``(gx, gy)`` arrays; the spreading force is ``-grad``.
        """
        smooth = self.smoothed()
        gy, gx = np.gradient(smooth)
        bx, by = self.bin_of(xs, ys)
        return (gx[by, bx], gy[by, bx])


def reference_run(netlist, grid, cfg, style):
    """The two-column ``np.add.at`` GP loop; returns ``(hpwl, overflow)``."""
    rng = np.random.default_rng(cfg.seed)

    node_ids = [("q", q.index) for q in netlist.qubits]
    node_ids += [("b", b.resonator_key, b.ordinal) for b in netlist.wire_blocks]
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

    pos[num_qubits:] += rng.normal(0.0, cfg.gp_noise, (n - num_qubits, 2))

    nets = netlist.nets(style)
    src = np.array([index_of[u] for u, _ in nets], dtype=int)
    dst = np.array([index_of[v] for _, v in nets], dtype=int)

    density = ReferenceDensityMap(grid, bin_size=2.0 * cfg.lb)
    half = np.where(np.arange(n) < num_qubits, cfg.qubit_size / 2.0, cfg.lb / 2.0)

    step = cfg.gp_step
    for _ in range(cfg.gp_iterations):
        force = np.zeros_like(pos)
        delta = pos[dst] - pos[src]
        np.add.at(force, src, cfg.gp_attraction * delta)
        np.add.at(force, dst, -cfg.gp_attraction * delta)
        density.deposit(pos[:, 0], pos[:, 1], areas)
        gx, gy = density.gradient_at(pos[:, 0], pos[:, 1])
        force[:, 0] -= cfg.gp_density * gx
        force[:, 1] -= cfg.gp_density * gy
        force[:num_qubits] += cfg.gp_anchor * (anchors - pos[:num_qubits])

        norm = np.linalg.norm(force, axis=1, keepdims=True)
        cap = 1.5 * cfg.lb
        scale = np.minimum(1.0, cap / np.maximum(norm, 1e-12))
        pos += step * (force * scale)

        pos[:, 0] = np.clip(pos[:, 0], half, grid.width - half)
        pos[:, 1] = np.clip(pos[:, 1], half, grid.height - half)
        step *= 0.995

    for k, nid in enumerate(node_ids):
        if nid[0] == "q":
            netlist.qubit(nid[1]).move_to(float(pos[k, 0]), float(pos[k, 1]))
        else:
            _, key, ordinal = nid
            block = netlist.resonator(*key).blocks[ordinal]
            block.move_to(float(pos[k, 0]), float(pos[k, 1]))
    density.deposit(pos[:, 0], pos[:, 1], areas)
    overflow = float(np.max(density.density) / density.bin_size**2)
    positions = {nid: tuple(pos[k]) for nid, k in index_of.items()}
    return (total_hpwl(nets, positions), overflow)


def bits(values) -> np.ndarray:
    """IEEE bit patterns, so 0.0 and -0.0 (or two NaNs) are told apart."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def snapshot_bits(netlist) -> tuple:
    snapshot = netlist.snapshot()
    return (list(snapshot), bits(list(snapshot.values())))


def assert_gp_parity(topology, cfg, style):
    netlist, grid = build_layout(topology, cfg)
    result = GlobalPlacer(cfg).run(netlist, grid, style=style)
    ref_netlist, ref_grid = build_layout(topology, cfg)
    ref_hpwl, ref_overflow = reference_run(ref_netlist, ref_grid, cfg, style)

    ids, got = snapshot_bits(netlist)
    ref_ids, want = snapshot_bits(ref_netlist)
    assert ids == ref_ids
    assert np.array_equal(got, want)
    assert result.hpwl.hex() == ref_hpwl.hex()
    assert result.max_bin_overflow.hex() == ref_overflow.hex()


TOPOLOGIES = [*PAPER_TOPOLOGIES, "grid8", "grid12"]


def _topology(name):
    if name.startswith("grid") and name[4:].isdigit():
        return grid_topology(int(name[4:]))
    return get_topology(name)


@pytest.mark.parametrize("seed", [2025, 7])
@pytest.mark.parametrize("style", list(ConnectionStyle), ids=lambda s: s.value)
@pytest.mark.parametrize("name", TOPOLOGIES)
def test_gp_matches_add_at_loop(name, style, seed):
    cfg = QGDPConfig(gp_iterations=40, seed=seed)
    assert_gp_parity(_topology(name), cfg, style)


def _isolated_topology():
    return Topology(
        name="isolated",
        display_name="Isolated",
        num_qubits=3,
        edges=[],
        ideal_positions={0: (0.0, 0.0), 1: (2.0, 0.0), 2: (1.0, 2.0)},
    )


def test_gp_without_couplers_matches_add_at_loop():
    """No couplers means no nets: the spring matrix has no columns, and
    its product must still be float zeros."""
    cfg = QGDPConfig(gp_iterations=40)
    for style in ConnectionStyle:
        assert_gp_parity(_isolated_topology(), cfg, style)


@pytest.mark.parametrize("name", [*PAPER_TOPOLOGIES, "grid24", "isolated"])
def test_net_index_arrays_are_the_tuple_nets(name):
    """GP's index arrays are ``netlist.nets(style)`` through the node index,
    net for net: the ``np.bincount`` force order depends on the net order."""
    topology = {
        "grid24": lambda: grid_topology(24),
        "isolated": _isolated_topology,
    }.get(name, lambda: get_topology(name))()
    netlist, _grid = build_layout(topology, QGDPConfig())
    node_ids = [q.node_id for q in netlist.qubits]
    node_ids += [b.node_id for b in netlist.wire_blocks]
    index_of = {nid: k for k, nid in enumerate(node_ids)}
    for style in ConnectionStyle:
        nets = netlist.nets(style)
        src, dst = net_index_arrays(netlist, style)
        assert src.tolist() == [index_of[u] for u, _ in nets]
        assert dst.tolist() == [index_of[v] for _, v in nets]


@pytest.mark.parametrize("seed", range(5))
def test_deposit_matches_add_at(seed):
    grid = SiteGrid(cols=13, rows=9)
    rng = np.random.default_rng(seed)
    # Cells beyond both borders (clipped into the edge bins) plus a run
    # of coincident cells whose areas pile into one bin in order.
    xs = np.concatenate((rng.uniform(-4.0, 17.0, 200), np.full(7, 6.3)))
    ys = np.concatenate((rng.uniform(-4.0, 13.0, 200), np.full(7, 4.1)))
    areas = np.concatenate((rng.uniform(0.1, 9.0, 200), rng.uniform(0.1, 1.0, 7)))
    for bin_size in (1.0, 2.0, 3.7):
        got = DensityMap(grid, bin_size)
        want = ReferenceDensityMap(grid, bin_size)
        bins = got.deposit(xs, ys, areas)
        want.deposit(xs, ys, areas)
        assert got.density.dtype == np.float64
        assert got.density.shape == want.density.shape
        assert np.array_equal(bits(got.density), bits(want.density))
        gx, gy = got.gradient_at(*bins)
        rx, ry = want.gradient_at(xs, ys)
        assert np.array_equal(bits(gx), bits(rx))
        assert np.array_equal(bits(gy), bits(ry))


def test_empty_deposit_is_float_zeros():
    density = DensityMap(SiteGrid(cols=8, rows=6), bin_size=2.0)
    density.deposit(np.array([3.0]), np.array([3.0]), np.array([5.0]))
    density.deposit(np.zeros(0), np.zeros(0), np.zeros(0))
    assert density.density.dtype == np.float64
    assert density.density.shape == (density.ny, density.nx)
    assert not density.density.any()


def bincount_springs(coord, src, dst, attraction):
    """The ``np.bincount`` spring scatter the spring matrix replaced."""
    pull = attraction * (coord[dst] - coord[src])
    force = np.bincount(
        np.concatenate((src, dst)),
        np.concatenate((pull, -pull)),
        minlength=len(coord),
    )
    return force.astype(np.float64, copy=False)


@st.composite
def spring_cases(draw):
    """Nodes, nets and coordinates: repeated pairs, hub nodes that are the
    source and sink of many nets, isolated nodes and zero nets."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    nets = draw(st.lists(st.tuples(node, node), max_size=40))
    if nets and draw(st.booleans()):
        nets += draw(st.lists(st.sampled_from(nets), max_size=10))
    hub = draw(node)
    nets += [(hub, draw(node)) for _ in range(draw(st.integers(0, 6)))]
    nets += [(draw(node), hub) for _ in range(draw(st.integers(0, 6)))]
    nets = draw(st.permutations(nets))
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    coords = draw(st.lists(coord, min_size=n, max_size=n))
    src = np.array([u for u, _ in nets], dtype=np.intp)
    dst = np.array([v for _, v in nets], dtype=np.intp)
    return (np.array(coords), src, dst)


NO_NETS = (np.arange(5.0), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))


@settings(max_examples=200, deadline=None)
@given(case=spring_cases(), attraction=st.sampled_from([0.0, 0.05, 1.0, 0.37]))
@example(case=NO_NETS, attraction=0.05)  # no columns: still float zeros
def test_spring_matrix_is_the_bincount_scatter(case, attraction):
    coord, src, dst = case
    springs = spring_matrix(src, dst, len(coord))
    got = springs @ (attraction * (coord[dst] - coord[src]))
    want = bincount_springs(coord, src, dst, attraction)
    assert springs.shape == (len(coord), len(src))
    assert got.dtype == np.float64
    assert np.array_equal(bits(got), bits(want))


def reference_smoothed(density):
    """The ``np.pad`` box blur ``DensityMap.smoothed`` replaced."""
    d = density.density
    padded = np.pad(d, 1, mode="edge")
    out = np.zeros_like(d)
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + d.shape[0], dx : dx + d.shape[1]]
    return out / 9.0


def reference_gradient_at(density, bx, by):
    """``np.gradient`` of the ``np.pad`` blur and the 2-D gather."""
    gy, gx = np.gradient(reference_smoothed(density))
    return (gx[by, bx], gy[by, bx])


@settings(max_examples=100, deadline=None)
@given(
    cols=st.integers(1, 30),
    rows=st.integers(1, 30),
    bin_size=st.sampled_from([1.0, 2.0, 3.7, 50.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(cols=3, rows=2, bin_size=2.0, seed=0)  # the minimum 2x2 map
def test_gradient_at_is_np_gradient(cols, rows, bin_size, seed):
    """Random maps, down to the minimum 2x2, with signed and zero bins."""
    density = DensityMap(SiteGrid(cols=cols, rows=rows), bin_size)
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, 60))
    xs = rng.uniform(-2.0, cols + 2.0, count)
    ys = rng.uniform(-2.0, rows + 2.0, count)
    areas = rng.uniform(-5.0, 9.0, count)
    bins = density.deposit(xs, ys, areas)
    assert np.array_equal(bits(density.smoothed()), bits(reference_smoothed(density)))
    got = density.gradient_at(*bins)
    want = reference_gradient_at(density, *bins)
    for g, w in zip(got, want):
        assert np.array_equal(bits(g), bits(w))


def test_reused_density_map_carries_no_state():
    """One map through deposits of different sizes gives, at every step,
    what a fresh map gives for that deposit alone."""
    grid = SiteGrid(cols=17, rows=11)
    reused = DensityMap(grid, bin_size=2.0)
    rng = np.random.default_rng(3)
    for count in (300, 1, 0, 40, 300):
        xs = rng.uniform(-1.0, 18.0, count)
        ys = rng.uniform(-1.0, 12.0, count)
        areas = rng.uniform(0.1, 9.0, count)
        fresh = DensityMap(grid, bin_size=2.0)
        bins = reused.deposit(xs, ys, areas)
        fresh.deposit(xs, ys, areas)
        assert np.array_equal(bits(reused.smoothed()), bits(fresh.smoothed()))
        got = reused.gradient_at(*bins)
        want = fresh.gradient_at(*bins)
        for g, w in zip(got, want):
            assert np.array_equal(bits(g), bits(w))
