"""Configuration validation."""

import pytest

from repro.core.config import QGDPConfig


def test_defaults_valid():
    cfg = QGDPConfig()
    assert cfg.lb == 1.0
    assert cfg.qubit_size > cfg.lb
    assert cfg.initial_qubit_spacing >= cfg.min_qubit_spacing


def test_rejects_nonpositive_lb():
    with pytest.raises(ValueError):
        QGDPConfig(lb=0.0)


def test_rejects_tiny_qubits():
    with pytest.raises(ValueError):
        QGDPConfig(qubit_size=0.5)


def test_rejects_negative_spacing():
    with pytest.raises(ValueError):
        QGDPConfig(min_qubit_spacing=-1.0)


def test_rejects_inverted_spacing_schedule():
    with pytest.raises(ValueError):
        QGDPConfig(initial_qubit_spacing=0.5, min_qubit_spacing=1.0)


@pytest.mark.parametrize(
    ("fields", "name"),
    [
        (
            {"min_qubit_spacing": 1.5, "initial_qubit_spacing": 1.5},
            "min_qubit_spacing",
        ),
        ({"initial_qubit_spacing": 2.5}, "initial_qubit_spacing"),
        ({"qubit_size": 3.5}, "qubit_size"),
        (
            {"lb": 2.0, "qubit_size": 6.0, "min_qubit_spacing": 3.0,
             "initial_qubit_spacing": 4.0},
            "min_qubit_spacing",
        ),
    ],
)
def test_rejects_sizes_and_spacings_off_the_site_grid(fields, name):
    # Half-site spacings used to pass here and leave 8 of falcon's 27
    # qubits off the site grid, with no legality or spacing violation
    # reported: the LP's snap repair needs whole-site separations.
    with pytest.raises(ValueError, match=name):
        QGDPConfig(**fields)


def test_accepts_whole_site_sizes_and_spacings():
    cfg = QGDPConfig(
        lb=2.0, qubit_size=6.0, min_qubit_spacing=2.0, initial_qubit_spacing=6.0
    )
    assert cfg.qubit_size == 6.0
    assert QGDPConfig(lb=0.1, qubit_size=0.3, min_qubit_spacing=0.1).lb == 0.1


def test_rejects_extreme_utilization():
    with pytest.raises(ValueError):
        QGDPConfig(utilization=0.99)
    with pytest.raises(ValueError):
        QGDPConfig(utilization=0.01)


@pytest.mark.parametrize("reach", [0.0, -1.0])
def test_rejects_nonpositive_reach(reach):
    # Zero reach used to pass here and divide by zero in the Eq. 4 decay
    # of two touching, resonant qubits.
    with pytest.raises(ValueError, match="reach"):
        QGDPConfig(reach=reach)


@pytest.mark.parametrize("delta_c", [0.0, -0.04])
def test_rejects_nonpositive_delta_c(delta_c):
    # Zero delta_c used to survive GP and LG and fail only inside tau,
    # during the layout metrics.
    with pytest.raises(ValueError, match="delta_c"):
        QGDPConfig(delta_c=delta_c)


@pytest.mark.parametrize("margin", [0.0, -0.5])
def test_rejects_nonpositive_margin(margin):
    # A zero margin gave a collinear device a zero-area die, and
    # size_grid divided by it; a negative one took a negative sqrt.
    with pytest.raises(ValueError, match="margin"):
        QGDPConfig(margin=margin)


def test_custom_values_accepted():
    cfg = QGDPConfig(utilization=0.5, seed=7, delta_c=0.08)
    assert cfg.utilization == 0.5
    assert cfg.seed == 7
