"""Wire-block net construction: snake vs. pseudo connections (Fig. 5c-d).

The global placer pulls connected cells together.  How wire blocks are
wired into nets therefore shapes the post-GP resonator footprint:

* **snake** — each block connects only to its predecessor/successor, and
  the first/last block to the endpoint qubits (qPlacer's scheme [12]).
  The density force then stretches the chain into a long line, which
  legalizes badly and has a large crosstalk perimeter.
* **pseudo** — in addition to the snake, every block is connected to all
  of its neighbours in the reshaped ``cols x rows`` rectangle (Fig. 5d,
  red arrows), steering GP toward a compact, legalization-friendly blob.

A *net* here is a 2-pin ``(u, v)`` pair over node ids; node ids are either
``("q", index)`` for qubits or ``("b", resonator_key, ordinal)`` for wire
blocks, so the nets can be consumed directly by the placer.
"""

from __future__ import annotations

import enum

from repro.netlist.components import Resonator
from repro.netlist.partition import reshape_to_rectangle


class ConnectionStyle(enum.Enum):
    """Which wire-block net construction to use."""

    SNAKE = "snake"
    PSEUDO = "pseudo"


def qubit_node(index: int) -> tuple:
    """Placer node id for qubit ``index``."""
    return ("q", index)


def block_node(resonator_key: tuple, ordinal: int) -> tuple:
    """Placer node id for a wire block."""
    return ("b", resonator_key, ordinal)


def net_pattern(style: ConnectionStyle, num_blocks: int) -> tuple:
    """One resonator's nets as ``(a, b)`` pairs of local node numbers.

    The net structure depends only on the style and the block count:
    local node 0 is qubit_i, node ``k`` (``1 ≤ k ≤ n``) is block
    ``k − 1`` and node ``n + 1`` is qubit_j.  The order is the net order
    every consumer sees: the snake chain qubit_i — b0 — ... — b(n-1) —
    qubit_j (just qubit_i — qubit_j without blocks), then, for pseudo
    connections, each block's link to its right and upper neighbour in
    the ``cols x rows`` rectangle from :func:`reshape_to_rectangle`
    (blocks row-major), skipping pairs already joined.
    """
    n = num_blocks
    nets = [(k, k + 1) for k in range(n + 1)]
    if style is not ConnectionStyle.PSEUDO or n <= 1:
        return tuple(nets)
    cols, _rows = reshape_to_rectangle(n)
    seen = {frozenset(net) for net in nets}
    for i in range(n):
        col, row = i % cols, i // cols
        for j in (i + 1, i + cols):
            if j >= n:
                continue
            jcol, jrow = j % cols, j // cols
            adjacent = (jrow == row and jcol == col + 1) or (
                jcol == col and jrow == row + 1
            )
            if not adjacent:
                continue
            net = (i + 1, j + 1)
            if frozenset(net) not in seen:
                seen.add(frozenset(net))
                nets.append(net)
    return tuple(nets)


def build_block_nets(resonators: list, style: ConnectionStyle) -> list:
    """Nets for every resonator under the chosen connection style, as
    node-id pairs: :func:`net_pattern` over each resonator's nodes, in
    resonator order."""
    patterns = {}
    nets = []
    for resonator in resonators:
        n = resonator.num_blocks
        if n not in patterns:
            patterns[n] = net_pattern(style, n)
        nodes = [qubit_node(resonator.qi)]
        nodes.extend(block_node(resonator.key, k) for k in range(n))
        nodes.append(qubit_node(resonator.qj))
        nets.extend((nodes[a], nodes[b]) for a, b in patterns[n])
    return nets


def snake_connection_nets(resonator: Resonator) -> list:
    """Chain nets: qubit_i — b0 — b1 — ... — b(n-1) — qubit_j."""
    return build_block_nets([resonator], ConnectionStyle.SNAKE)


def pseudo_connection_nets(resonator: Resonator) -> list:
    """Snake nets plus all-neighbour links in the reshaped rectangle.

    Blocks are conceptually arranged row-major in the ``cols x rows``
    rectangle from :func:`reshape_to_rectangle`; each block gets a net to
    its right and upper neighbour (covering every adjacent pair once).
    """
    return build_block_nets([resonator], ConnectionStyle.PSEUDO)
