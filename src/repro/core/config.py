"""Configuration for the qGDP flow.

All geometric quantities are in layout units where the standard-cell pitch
``lb`` (one wire-block side) is 1.0 — the paper's convention of treating
the resonator segment as the standard cell and qubits as macros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frequency.assignment import DEFAULT_QUBIT_BANDS, DEFAULT_RESONATOR_BANDS


@dataclass
class QGDPConfig:
    """Tunable parameters of the layout flow.

    Parameters
    ----------
    lb:
        Standard-cell (wire block) pitch; the site grid unit.
    qubit_size:
        Qubit macro side length, a whole number of ``lb`` (macros ≫ cells).
    min_qubit_spacing:
        Quantum minimum edge-to-edge spacing between qubit macros, a whole
        number of ``lb`` (Section III-C: at least one standard cell).
    initial_qubit_spacing:
        Where the greedy relaxation starts, a whole number of ``lb``;
        relaxed one ``lb`` at a time down to ``min_qubit_spacing`` when the
        LP is infeasible.
    resonator_length:
        Reference resonator wirelength ``L`` at the centre band frequency,
        in ``lb``; actual length scales as ``f_ref / f`` (a λ/4 resonator
        is longer at lower frequency).  Chosen so Eq. 6 yields ≈ 11-12
        blocks per resonator, matching the paper's Table III cell counts.
    pad:
        Padding width ``l_pad`` of Eq. 6.
    utilization:
        Target substrate area utilization used when sizing the die.
    margin:
        Border margin around the ideal footprint, in ideal units.
    reach:
        Hotspot interaction reach (layout units), see
        :mod:`repro.frequency.hotspots`.
    delta_c:
        Frequency-proximity threshold Δc in GHz.
    qubit_bands, resonator_bands:
        Frequency allocation bands in GHz.
    gp_iterations, gp_attraction, gp_anchor, gp_density, gp_step, gp_noise:
        Global-placer schedule knobs (see
        :class:`repro.placement.global_placer.GlobalPlacer`).
    seed:
        Base RNG seed for every stochastic stage.
    """

    lb: float = 1.0
    qubit_size: float = 3.0
    min_qubit_spacing: float = 1.0
    initial_qubit_spacing: float = 2.0
    resonator_length: float = 11.3
    pad: float = 1.0
    utilization: float = 0.72
    margin: float = 0.9
    reach: float = 2.0
    delta_c: float = 0.04
    qubit_bands: tuple = field(default=DEFAULT_QUBIT_BANDS)
    resonator_bands: tuple = field(default=DEFAULT_RESONATOR_BANDS)
    gp_iterations: int = 250
    gp_attraction: float = 0.65
    gp_anchor: float = 0.05
    gp_density: float = 0.08
    gp_step: float = 0.8
    gp_noise: float = 0.15
    seed: int = 2025

    def __post_init__(self) -> None:
        if self.lb <= 0:
            raise ValueError(f"lb must be positive, got {self.lb}")
        if self.qubit_size < self.lb:
            raise ValueError("qubit macros must be at least one site wide")
        if self.min_qubit_spacing < 0:
            raise ValueError("min_qubit_spacing cannot be negative")
        if self.initial_qubit_spacing < self.min_qubit_spacing:
            raise ValueError(
                "initial_qubit_spacing must be >= min_qubit_spacing "
                f"({self.initial_qubit_spacing} < {self.min_qubit_spacing})"
            )
        # The qubit LP's snap repair keeps macros on the site grid only
        # when every separation and border is a whole number of sites.
        for name in ("qubit_size", "min_qubit_spacing", "initial_qubit_spacing"):
            value = getattr(self, name)
            fraction = (value / self.lb) % 1.0
            if not min(fraction, 1.0 - fraction) <= 1e-9:
                raise ValueError(
                    f"{name} must be a whole number of sites "
                    f"(lb={self.lb}), got {value}"
                )
        if not (0.05 <= self.utilization <= 0.95):
            raise ValueError(f"utilization out of range: {self.utilization}")
        if self.margin <= 0:  # a collinear device would get a zero-area die
            raise ValueError(f"margin must be positive, got {self.margin}")
        if self.reach <= 0 or self.delta_c <= 0:  # Eq. 4 and tau divide by them
            raise ValueError(
                f"reach and delta_c must be positive: {self.reach}, {self.delta_c}"
            )
