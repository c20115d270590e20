"""Parity: ``BinGrid.of_layout``'s one array pass equals the per-block loop.

The reference below is a verbatim transcription of the original
``of_layout``: after the qubit macros, it occupied one site per wire
block through ``occupy``, which interned owners and resonator keys as it
went and raised on the first block whose site was taken.  The rewrite
classifies and writes every block at once; its sites, interning tables
and occupancy arrays must be the reference's on every protocol layout,
and a conflict must raise the same ``ValueError`` naming the same site.
"""

import re

import pytest

from repro.core.pipeline import QGDPFlow
from repro.geometry import SiteGrid
from repro.legalization import BinGrid
from repro.legalization.engines import PAPER_ENGINE_ORDER
from repro.netlist import QuantumNetlist, Qubit, Resonator, WireBlock
from repro.topologies import PAPER_TOPOLOGIES, grid_topology


# -- verbatim reference ------------------------------------------------------
def reference_of_layout(netlist, grid):
    bins = BinGrid(grid)
    for qubit in netlist.qubits:
        bins.occupy_rect(qubit.rect, qubit.node_id)
    for block in netlist.wire_blocks:
        bins.occupy(*grid.site_of(block.center), block.node_id)
    return bins


def state(bins):
    return (
        bins.kind_flat.tolist(),
        bins.owner_idx_flat.tolist(),
        bins.res_idx_flat.tolist(),
        list(bins.owners),
        list(bins._res_keys),
    )


# -- conflicts ---------------------------------------------------------------
GRID = SiteGrid(10, 6)


def tiny_netlist(block_centres):
    """Two 2x2 qubits — sites (0..1, 0..1) and, on the right edge,
    (8..9, 3..4) — and one resonator whose blocks sit at the centres."""
    netlist = QuantumNetlist(name="tiny")
    netlist.add_qubit(Qubit(0, 2.0, 2.0, x=1.0, y=1.0))
    netlist.add_qubit(Qubit(1, 2.0, 2.0, x=9.0, y=4.0))
    resonator = netlist.add_resonator(Resonator(qi=0, qj=1, wirelength=1.0))
    resonator.blocks = [
        WireBlock(resonator_key=(0, 1), ordinal=k, x=x, y=y)
        for k, (x, y) in enumerate(block_centres)
    ]
    return netlist


CONFLICTS = {
    # Block 1 lands on qubit 0, block 3 on qubit 1: block 1 is first.
    "block_on_qubit": ([(3.5, 0.5), (1.5, 1.5), (4.5, 0.5), (8.5, 3.5)], (1, 1)),
    # Block 3 repeats block 1's site and block 4 block 0's: the repeat
    # reported is block 3's, though block 0's site comes first on the grid.
    "two_blocks_one_site": (
        [(3.5, 0.5), (5.5, 2.5), (4.5, 0.5), (5.5, 2.5), (3.5, 0.5)],
        (5, 2),
    ),
    # Off-grid blocks clamp onto column 0 (taken by block 0) and onto the
    # right edge (qubit 1's site (9, 3)).
    "off_grid_onto_block": ([(0.5, 3.5), (3.5, 0.5), (-4.0, 3.5)], (0, 3)),
    "off_grid_onto_qubit": ([(3.5, 0.5), (15.0, 3.5), (-4.0, 2.5)], (9, 3)),
    "below_and_left_onto_qubit": ([(5.5, 5.5), (-0.7, -3.0)], (0, 0)),
}


@pytest.mark.parametrize("of_layout", [reference_of_layout, BinGrid.of_layout])
@pytest.mark.parametrize("case", sorted(CONFLICTS))
def test_of_layout_names_the_first_conflicting_block(of_layout, case):
    centres, (col, row) = CONFLICTS[case]
    message = re.escape(f"site ({col}, {row}) already occupied")
    with pytest.raises(ValueError, match=f"^{message}$"):
        of_layout(tiny_netlist(centres), GRID)


def test_of_layout_matches_reference_on_a_legal_tiny_layout():
    netlist = tiny_netlist([(3.5, 0.5), (-2.0, 5.9), (20.0, 0.2), (4.5, 0.5)])
    assert state(BinGrid.of_layout(netlist, GRID)) == state(
        reference_of_layout(netlist, GRID)
    )


def test_of_layout_without_wire_blocks():
    netlist = tiny_netlist([])
    assert state(BinGrid.of_layout(netlist, GRID)) == state(
        reference_of_layout(netlist, GRID)
    )


# -- protocol layouts --------------------------------------------------------
def protocol_layouts():
    """The cold paper sweep's 36 rebuilt layouts: every engine's lg
    layout and qGDP's dp layout, on the six paper topologies."""
    for name in PAPER_TOPOLOGIES:
        flow = QGDPFlow(name)
        flow.place()
        gp = flow.netlist.snapshot()
        for engine in PAPER_ENGINE_ORDER:
            flow.restore(gp)
            flow.legalize(engine)
            yield flow.netlist, flow.grid
            if engine == "qgdp":
                flow.detail()
                yield flow.netlist, flow.grid


def test_of_layout_matches_reference_on_the_protocol_layouts():
    count = 0
    for netlist, grid in protocol_layouts():
        assert state(BinGrid.of_layout(netlist, grid)) == state(
            reference_of_layout(netlist, grid)
        )
        count += 1
    assert count == 36


def test_of_layout_matches_reference_at_side_24():
    flow = QGDPFlow(grid_topology(24))
    flow.run("qgdp", detailed=True)
    netlist, grid = flow.netlist, flow.grid
    assert len(netlist.wire_blocks) > 10_000
    assert state(BinGrid.of_layout(netlist, grid)) == state(
        reference_of_layout(netlist, grid)
    )
