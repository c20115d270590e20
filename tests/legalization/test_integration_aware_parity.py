"""Parity: Algorithm 1 on flat site arithmetic equals the per-site original.

The reference below is a verbatim transcription of the original
``integration_aware.py``: it probed the bins one site at a time
(``is_free``, ``free_neighbors``, ``sites_covered``) and took ``Baa``'s
minimum with a key lambda through ``_site_distance2``.  The legalizer now
reads ``kind_flat`` directly and builds the ``(dist², row, col)`` keys
inline; since the key is unique per site, every choice must be the same.
Placements (in order), the fallback count, the displacement float, the
block positions and the whole occupancy state must be equal — also where
both raise part-way (out of free sites, or a contested seed site).
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, SiteGrid
from repro.legalization import BinGrid, integration_aware_legalize
from repro.netlist import QuantumNetlist, Qubit, Resonator, WireBlock


# -- verbatim reference ------------------------------------------------------
def _site_distance2(site: tuple, target: tuple) -> float:
    dc = site[0] - target[0]
    dr = site[1] - target[1]
    return float(dc * dc + dr * dr)


def _attachment_sites(bins: BinGrid, rect) -> list:
    """Free sites 4-adjacent to a qubit footprint (attachment candidates)."""
    grid = bins.grid
    covered = set(grid.sites_covered(rect))
    candidates = set()
    for col, row in covered:
        for site in grid.neighbors4(col, row):
            if site not in covered and bins.is_free(*site):
                candidates.add(site)
    return sorted(candidates)


def reference_legalize(resonators: list, bins: BinGrid, netlist=None) -> tuple:
    """The original body, returning ``(placed, fallbacks, displacement)``."""
    grid = bins.grid
    placed = {}
    fallbacks = 0
    displacement = 0.0

    for resonator in resonators:
        adjacent_available = set()  # Baa
        attach = None
        if netlist is not None:
            qubit = netlist.qubit(resonator.qi)
            attach = _attachment_sites(bins, qubit.rect)
        for block in resonator.blocks:
            target = grid.site_of(block.center)
            if adjacent_available:
                site = min(
                    adjacent_available,
                    key=lambda s: (_site_distance2(s, target), s[1], s[0]),
                )
            elif block.ordinal == 0 and attach:
                site = min(
                    attach,
                    key=lambda s: (_site_distance2(s, target), s[1], s[0]),
                )
            else:
                site = bins.nearest_free(*target)
                if site is None:
                    raise RuntimeError(
                        "integration-aware legalization ran out of free sites"
                    )
                if block.ordinal > 0:
                    fallbacks += 1
            bins.occupy(site[0], site[1], block.node_id)
            adjacent_available.discard(site)
            center = grid.site_center(*site)
            displacement += abs(center.x - block.x) + abs(center.y - block.y)
            block.move_to(center.x, center.y)
            placed[block.name] = site
            adjacent_available.update(bins.free_neighbors(*site))

    return placed, fallbacks, displacement


# -- inputs -----------------------------------------------------------------
half = st.integers(-4, 24).map(lambda v: v / 2.0)
coord = st.one_of(half, st.floats(-2.0, 12.0, allow_nan=False))


@st.composite
def layouts(draw):
    """A small grid with qubit obstacles (some clipped by, or outside, the
    grid), walls, and resonators whose blocks contest a few targets."""
    cols = draw(st.integers(2, 9))
    rows = draw(st.integers(2, 9))
    qubits = [
        Qubit(
            index=index,
            w=float(draw(st.integers(1, 3))),
            h=float(draw(st.integers(1, 3))),
            x=draw(coord),
            y=draw(coord),
        )
        for index in range(draw(st.integers(2, 4)))
    ]
    walls = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=6))
    hotspots = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=3))
    target = st.one_of(st.sampled_from(hotspots), st.tuples(coord, coord))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, len(qubits) - 1), st.integers(0, len(qubits) - 1))
            .filter(lambda p: p[0] != p[1])
            .map(lambda p: (min(p), max(p))),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    resonators = []
    for key in pairs:
        positions = draw(st.lists(target, min_size=1, max_size=7))
        ordinals = list(range(len(positions)))
        if draw(st.booleans()) and draw(st.booleans()):
            ordinals = draw(st.permutations(ordinals))
        resonators.append((key, list(zip(ordinals, positions))))
    return {
        "grid": (cols, rows),
        "qubits": qubits,
        "walls": walls,
        "resonators": resonators,
        "with_netlist": draw(st.booleans()),
    }


def build(spec) -> tuple:
    """``(resonators, bins, netlist)`` with the qubits and walls blocked out."""
    netlist = QuantumNetlist(name="parity")
    for qubit in spec["qubits"]:
        netlist.add_qubit(copy.copy(qubit))
    bins = BinGrid(SiteGrid(*spec["grid"]))
    for qubit in netlist.qubits:
        try:
            bins.occupy_rect(qubit.rect, qubit.node_id)
        except ValueError:
            pass  # overlaps an earlier qubit: it stays in the netlist only
    for col, row in spec["walls"]:
        if bins.grid.in_grid(col, row) and bins.is_free(col, row):
            bins.occupy(col, row, "wall")
    resonators = []
    for (qi, qj), blocks in spec["resonators"]:
        resonator = netlist.add_resonator(Resonator(qi=qi, qj=qj, wirelength=1.0))
        resonator.blocks = [
            WireBlock(resonator_key=resonator.key, ordinal=k, x=x, y=y)
            for k, (x, y) in blocks
        ]
        resonators.append(resonator)
    return resonators, bins, netlist if spec["with_netlist"] else None


def run(legalize, spec) -> tuple:
    resonators, bins, netlist = build(spec)
    try:
        result = legalize(resonators, bins, netlist)
    except (RuntimeError, ValueError) as exc:
        outcome = ("ValueError" if isinstance(exc, ValueError) else "RuntimeError", None)
    else:
        if isinstance(result, tuple):
            placed, fallbacks, displacement = result
        else:
            placed = result.placed
            fallbacks = result.fallback_blocks
            displacement = result.total_displacement
        outcome = (list(placed.items()), (fallbacks, displacement.hex()))
    return (
        outcome,
        [(b.x, b.y) for r in resonators for b in r.blocks],
        bins.kind_flat.tolist(),
        bins.owner_idx_flat.tolist(),
        bins.res_idx_flat.tolist(),
        list(bins.owners),
    )


@settings(max_examples=400, deadline=None)
@given(spec=layouts())
def test_matches_per_site_reference(spec):
    assert run(integration_aware_legalize, spec) == run(reference_legalize, spec)


def test_exhausted_baa_falls_back_like_the_reference():
    """A pocket of one free site: Baa runs dry and nearest_free seeds a
    second cluster, on both implementations."""
    spec = {
        "grid": (6, 6),
        "qubits": [Qubit(0, 1.0, 1.0, 1.5, 0.5), Qubit(1, 1.0, 1.0, 0.5, 1.5)],
        "walls": [(1, 1)],
        "resonators": [((0, 1), [(k, (0.5, 0.5)) for k in range(3)])],
        "with_netlist": False,
    }
    got = run(integration_aware_legalize, spec)
    assert got == run(reference_legalize, spec)
    assert got[0][1][0] == 1  # one fallback seed


def test_clipped_qubit_ring_matches_the_reference():
    """Qubit pads half outside the grid (and one wholly outside): the
    attachment ring is whatever the clipped footprint leaves."""
    for x, y in ((-0.5, 2.5), (5.5, 2.5), (2.5, -0.5), (2.5, 5.5), (40.0, 40.0)):
        spec = {
            "grid": (6, 6),
            "qubits": [Qubit(0, 3.0, 3.0, x, y), Qubit(1, 1.0, 1.0, 4.5, 4.5)],
            "walls": [],
            "resonators": [((0, 1), [(k, (3.0, 3.0)) for k in range(4)])],
            "with_netlist": True,
        }
        assert run(integration_aware_legalize, spec) == run(reference_legalize, spec)


def test_ring_is_the_free_four_neighbourhood_of_the_footprint():
    """The inline ring equals ``neighbors4`` over the covered sites."""
    from repro.legalization.integration_aware import _attachment_ring

    bins = BinGrid(SiteGrid(7, 5))
    bins.occupy(0, 1, "wall")
    for rect in (
        Rect(1.5, 1.5, 3.0, 3.0),
        Rect(3.0, 2.0, 2.0, 2.0),
        Rect(6.5, 4.5, 3.0, 3.0),
        Rect(-9.0, 2.0, 2.0, 2.0),
        Rect(3.5, 2.5, 7.0, 5.0),
    ):
        with memoryview(bins.kind_flat) as kind:
            ring = _attachment_ring(kind, bins.grid, rect)
        assert sorted(ring) == _attachment_sites(bins, rect)
