"""The five named legalization engines, end to end."""

import pickle

import pytest

from repro.core.config import QGDPConfig
from repro.geometry import SiteGrid
from repro.legalization import (
    ENGINES,
    PAPER_ENGINE_ORDER,
    BinGrid,
    LegalizationInfeasible,
    get_engine,
    run_legalization,
    tetris_legalize,
)
from repro.metrics import check_legality, integration_ratio, qubit_spacing_violations
from repro.netlist import QuantumNetlist, Qubit, Resonator, WireBlock


def test_registry_contents():
    assert set(PAPER_ENGINE_ORDER) == set(ENGINES)
    assert get_engine("QGDP").display_name == "qGDP-LG"
    with pytest.raises(KeyError):
        get_engine("unknown")


def test_engine_traits():
    assert ENGINES["qgdp"].quantum_qubits
    assert ENGINES["qgdp"].resonator_method == "integration"
    assert not ENGINES["tetris"].quantum_qubits
    assert ENGINES["q-abacus"].resonator_method == "abacus"


@pytest.mark.parametrize("engine_name", PAPER_ENGINE_ORDER)
def test_every_engine_produces_legal_layout(
    engine_name, fast_config, falcon_gp
):
    netlist, grid, gp_positions = falcon_gp
    netlist.restore(gp_positions)
    outcome = run_legalization(
        netlist, grid, get_engine(engine_name), fast_config
    )
    assert check_legality(netlist, grid) == []
    assert outcome.qubit_time_s > 0
    assert outcome.resonator_time_s > 0


def test_quantum_engines_leave_no_spacing_violations(fast_config, falcon_gp):
    netlist, grid, gp_positions = falcon_gp
    for engine_name in ("qgdp", "q-abacus", "q-tetris"):
        netlist.restore(gp_positions)
        run_legalization(netlist, grid, get_engine(engine_name), fast_config)
        assert (
            qubit_spacing_violations(netlist, fast_config.min_qubit_spacing)
            == []
        )


def test_qgdp_integration_beats_classical(fast_config, falcon_gp):
    netlist, grid, gp_positions = falcon_gp

    def unified_count(engine_name):
        netlist.restore(gp_positions)
        run_legalization(netlist, grid, get_engine(engine_name), fast_config)
        unified, _total = integration_ratio(netlist)
        return unified

    assert unified_count("qgdp") >= unified_count("tetris")
    assert unified_count("qgdp") >= unified_count("abacus")


def test_qubits_identical_across_quantum_engines(fast_config, falcon_gp):
    netlist, grid, gp_positions = falcon_gp

    def qubit_positions(engine_name):
        netlist.restore(gp_positions)
        run_legalization(netlist, grid, get_engine(engine_name), fast_config)
        return {q.index: (q.x, q.y) for q in netlist.qubits}

    assert qubit_positions("qgdp") == qubit_positions("q-tetris")


def test_bins_consistent_with_netlist(fast_config, falcon_legalized):
    netlist, grid, outcome = falcon_legalized
    for block in netlist.wire_blocks:
        site = grid.site_of(block.center)
        assert outcome.bins.occupant(*site) == block.node_id


def _cramped_netlist(num_blocks: int) -> QuantumNetlist:
    """Two 1x1 qubits at the ends of a 6x2 die and one resonator."""
    netlist = QuantumNetlist(name="cramped")
    netlist.add_qubit(Qubit(index=0, w=1.0, h=1.0, x=0.5, y=0.5))
    netlist.add_qubit(Qubit(index=1, w=1.0, h=1.0, x=5.5, y=0.5))
    resonator = netlist.add_resonator(Resonator(qi=0, qj=1, wirelength=1.0))
    resonator.blocks = [
        WireBlock(resonator_key=resonator.key, ordinal=k, x=3.0, y=1.0)
        for k in range(num_blocks)
    ]
    return netlist


def test_qubit_stage_infeasible_is_typed_and_located():
    netlist = QuantumNetlist(name="packed")
    for index in range(4):
        netlist.add_qubit(Qubit(index=index, w=3.0, h=3.0, x=2.5, y=2.5))
    with pytest.raises(LegalizationInfeasible) as info:
        run_legalization(netlist, SiteGrid(5, 5), get_engine("tetris"))
    exc = info.value
    assert isinstance(exc, RuntimeError)
    assert (exc.stage, exc.engine, exc.topology) == ("qubit", "tetris", "packed")
    assert str(exc).startswith("qubit legalization infeasible: ")
    assert "engine 'tetris'" in str(exc) and "topology 'packed'" in str(exc)


@pytest.mark.parametrize(
    "engine_name, stage",
    [("qgdp", "integration"), ("q-abacus", "abacus"), ("q-tetris", "tetris")],
)
def test_resonator_stage_infeasible_is_typed_and_located(engine_name, stage):
    """Ten free sites for eleven blocks: the resonator stage gives up."""
    config = QGDPConfig(initial_qubit_spacing=1.0, min_qubit_spacing=1.0)
    netlist = _cramped_netlist(11)
    with pytest.raises(LegalizationInfeasible) as info:
        run_legalization(netlist, SiteGrid(6, 2), get_engine(engine_name), config)
    exc = info.value
    assert (exc.stage, exc.engine, exc.topology) == (stage, engine_name, "cramped")
    assert str(exc).startswith(f"{stage} legalization infeasible: ")
    # Ten blocks fit, so the same die is feasible one block fewer.
    outcome = run_legalization(
        _cramped_netlist(10), SiteGrid(6, 2), get_engine(engine_name), config
    )
    assert outcome.bins.num_free == 0


def _full_bins() -> BinGrid:
    bins = BinGrid(SiteGrid(2, 1))
    bins.occupy(0, 0, "x")
    bins.occupy(1, 0, "x")
    return bins


def test_infeasible_raised_outside_an_engine_is_unlocated():
    with pytest.raises(LegalizationInfeasible) as info:
        tetris_legalize(_cramped_netlist(1).wire_blocks, _full_bins())
    exc = info.value
    assert (exc.stage, exc.engine, exc.topology) == ("tetris", None, None)
    assert str(exc) == "tetris legalization infeasible: ran out of free sites"
    clone = pickle.loads(pickle.dumps(exc))
    assert (clone.stage, clone.detail, str(clone)) == (exc.stage, exc.detail, str(exc))
