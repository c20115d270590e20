"""Legality checking: Eq. 1 (non-overlap), Eq. 2 (borders), and the
quantum minimum-spacing rule of Section III-C.

Both pair checks take their candidates from one column-group scan,
:func:`~repro.geometry.near_pairs`, so full-layout validation touches
only nearby pairs — blocks stacked in one site column included; the
qGDP test-suite runs them after every legalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import SiteGrid, gap_between, near_pairs, rect_bounds
from repro.netlist.netlist import QuantumNetlist


@dataclass(frozen=True)
class LegalityViolation:
    """One broken design rule."""

    kind: str  # "overlap" | "border" | "qubit_spacing"
    id_a: tuple
    id_b: tuple = None
    amount: float = 0.0

    def __str__(self) -> str:
        if self.id_b is None:
            return f"{self.kind}: {self.id_a} by {self.amount:.3f}"
        return f"{self.kind}: {self.id_a} vs {self.id_b} by {self.amount:.3f}"


def _component_bounds(qubits: list, blocks: list) -> tuple:
    """``(lo, hi)`` corner arrays of ``qubits`` then ``blocks``, bit-equal
    to each component's ``rect.xlo`` etc. (``centre ∓ size / 2.0``)."""
    boxes = np.array(
        [(q.x, q.y, q.w, q.h) for q in qubits]
        + [(b.x, b.y, b.size, b.size) for b in blocks],
        dtype=np.float64,
    ).reshape(-1, 4)
    return boxes[:, :2] - boxes[:, 2:] / 2.0, boxes[:, :2] + boxes[:, 2:] / 2.0


def check_legality(
    netlist: QuantumNetlist,
    grid: SiteGrid,
    tol: float = 1e-6,
) -> list:
    """All overlap and border violations in the current layout.

    Border violations come first, in component order (qubits, then wire
    blocks), then overlaps in ``near_pairs`` order.  The border test runs
    on the corner arrays; a ``Rect`` is built only for a violator or an
    overlapping pair, whose amount keeps its scalar expression.
    """
    violations = []
    border = grid.border
    qubits, blocks = netlist.qubits, netlist.wire_blocks
    components = [*qubits, *blocks]
    lo, hi = _component_bounds(qubits, blocks)

    # Rect.inside, negated so a NaN corner is a violation, as there.
    outside = ~(
        (lo[:, 0] >= border.xlo - tol)
        & (hi[:, 0] <= border.xhi + tol)
        & (lo[:, 1] >= border.ylo - tol)
        & (hi[:, 1] <= border.yhi + tol)
    )
    for k in np.flatnonzero(outside).tolist():
        component = components[k]
        rect = component.rect
        excess = max(
            border.xlo - rect.xlo,
            rect.xhi - border.xhi,
            border.ylo - rect.ylo,
            rect.yhi - border.yhi,
        )
        violations.append(LegalityViolation("border", component.node_id, None, excess))

    # An axis overlap above tol is exactly an axis gap below -tol (IEEE
    # subtraction is antisymmetric), so -tol admits every overlap.
    for i, j in near_pairs(lo, hi, -tol).tolist():
        rect_i, rect_j = components[i].rect, components[j].rect
        if rect_i.overlaps(rect_j, tol):
            overlap = min(
                rect_i.xhi - rect_j.xlo,
                rect_j.xhi - rect_i.xlo,
                rect_i.yhi - rect_j.ylo,
                rect_j.yhi - rect_i.ylo,
            )
            ids = (components[i].node_id, components[j].node_id)
            violations.append(LegalityViolation("overlap", *ids, overlap))
    return violations


def is_legal(netlist: QuantumNetlist, grid: SiteGrid, tol: float = 1e-6) -> bool:
    """True when the layout satisfies Eq. 1 and Eq. 2."""
    return not check_legality(netlist, grid, tol)


def qubit_spacing_violations(
    netlist: QuantumNetlist,
    min_spacing: float,
    tol: float = 1e-6,
) -> list:
    """Qubit pairs closer (edge-to-edge) than the quantum minimum spacing.

    These are the "spatial constraint violations" that feed the Rabi
    crosstalk error εg (Eq. 8): qubits without a resonator between them
    act as if directly capacitively coupled.
    """
    violations = []
    qubits = netlist.qubits
    # gap_between is never below either axis gap, so a kept pair (gap <
    # min_spacing - tol, tol >= 0) is within min_spacing on both axes.
    bounds = rect_bounds([q.rect for q in qubits])
    for a_pos, b_pos in near_pairs(*bounds, min_spacing).tolist():
        qa, qb = qubits[a_pos], qubits[b_pos]
        gap = gap_between(qa.rect, qb.rect)
        if gap < min_spacing - tol:
            violations.append(
                LegalityViolation(
                    "qubit_spacing", ("q", qa.index), ("q", qb.index), min_spacing - gap
                )
            )
    return violations
