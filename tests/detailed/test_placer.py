"""Detailed placer: never regresses, preserves legality and consistency."""

import pytest

from repro.core.config import QGDPConfig
from repro.core.pipeline import QGDPFlow
from repro.detailed import DetailedPlacer
from repro.evaluation.fingerprint import positions_digest
from repro.frequency.hotspots import hotspot_proportion, qubit_hotspot_pairs
from repro.legalization import BinGrid
from repro.metrics import check_legality, total_clusters
from repro.metrics.report import layout_metrics
from repro.netlist.clusters import block_cluster_map
from repro.netlist.traces import build_traces
from repro.routing import count_crossings
from repro.topologies import PAPER_TOPOLOGIES


@pytest.fixture()
def dp_run(fast_config, falcon_legalized):
    netlist, grid, outcome = falcon_legalized
    before = {
        "clusters": total_clusters(netlist),
        "ph": hotspot_proportion(netlist, fast_config.reach, fast_config.delta_c),
        "crossings": count_crossings(netlist, outcome.bins).total,
    }
    result = DetailedPlacer(fast_config).run(netlist, outcome.bins)
    return (netlist, grid, outcome.bins, before, result)


def test_layout_remains_legal(dp_run, fast_config):
    netlist, grid, _bins, _before, _result = dp_run
    assert check_legality(netlist, grid) == []


def test_clusters_never_regress(dp_run):
    netlist, _grid, _bins, before, result = dp_run
    assert total_clusters(netlist) <= before["clusters"]
    assert result.clusters_after <= result.clusters_before


def test_hotspots_never_regress(dp_run, fast_config):
    netlist, _grid, _bins, before, _result = dp_run
    after = hotspot_proportion(netlist, fast_config.reach, fast_config.delta_c)
    assert after <= before["ph"] + 1e-9


def test_crossings_never_regress(dp_run):
    netlist, _grid, bins, before, _result = dp_run
    assert count_crossings(netlist, bins).total <= before["crossings"]


def test_bins_consistent_after_dp(dp_run):
    netlist, grid, bins, _before, _result = dp_run
    occupied = 0
    for block in netlist.wire_blocks:
        site = grid.site_of(block.center)
        assert bins.occupant(*site) == block.node_id
        occupied += 1
    for qubit in netlist.qubits:
        occupied += len(grid.sites_covered(qubit.rect))
    assert grid.num_sites - bins.num_free == occupied


def test_accounting_adds_up(dp_run):
    _netlist, _grid, _bins, _before, result = dp_run
    assert result.attempted == result.accepted + result.reverted
    assert result.attempted <= result.flagged


#: ``(topology, engine) -> (flagged, accepted, reverted, positions digest)``
#: of DP after GP (60 iterations) and LG, on legalizers that leave many
#: windows to re-place; every accept/revert decision feeds the digest.
DP_OUTCOMES = {
    ("grid", "tetris"): (
        36, 6, 30,
        "97db24387255746d00bfa8168090ad3dac07b57b43a8344b46da9d7d531390e2",
    ),
    ("grid", "q-abacus"): (
        24, 5, 19,
        "2230f6eb89a87598dbbf8912418701078981e676bcfd894d1d41187d1ec5e23d",
    ),
    ("falcon", "tetris"): (
        20, 13, 7,
        "b3fdf8e3c9761ab033cb2b76ec1c0c930ec80677481d56f2d92af66dda39cfdd",
    ),
    ("aspen11", "tetris"): (
        37, 30, 7,
        "76aab87511359e7f01d2805028a40dc9614bbf76a9b11b3f8696f04238be50cf",
    ),
    ("aspen11", "q-abacus"): (
        22, 10, 12,
        "da699057a903baf13401537a7241a36e242e59a1bfd12fd8c7d1b13dba1ccd06",
    ),
    ("xtree", "tetris"): (
        39, 22, 17,
        "e0cbe2316f858ca2dd445a29b30715b23bc62da01db36bfb825bd23e1470645c",
    ),
}


@pytest.mark.parametrize("topology,engine", sorted(DP_OUTCOMES))
def test_dp_outcomes_pinned(topology, engine, fast_config):
    flow = QGDPFlow(topology, fast_config)
    flow.place()
    flow.legalize(engine)
    dp = flow.detail()
    got = (
        dp.metrics["flagged"],
        dp.metrics["accepted"],
        dp.metrics["reverted"],
        positions_digest(dp.positions),
    )
    assert got == DP_OUTCOMES[(topology, engine)]


@pytest.mark.parametrize("engine", ["tetris", "q-abacus"])
@pytest.mark.parametrize("topology", PAPER_TOPOLOGIES)
def test_dp_keeps_the_traces_it_is_handed_current(topology, engine, fast_config):
    """The traces dict handed to DP describes the final layout afterwards:
    accepted targets get their rebuilt trace, reverted ones their old one.
    Ten of these twelve layouts have both accepted and reverted windows
    (falcon/q-abacus only accepts, eagle/q-abacus flags none)."""
    flow = QGDPFlow(topology, fast_config)
    flow.place()
    flow.legalize(engine)
    netlist, bins = flow.netlist, flow.bins
    traces = build_traces(netlist, fast_config.lb)
    DetailedPlacer(fast_config).run(netlist, bins, traces)
    assert traces == build_traces(netlist, fast_config.lb)
    assert layout_metrics(
        netlist, bins, fast_config, traces=traces
    ) == layout_metrics(netlist, bins, fast_config)


@pytest.mark.parametrize("engine", ["tetris", "q-abacus"])
@pytest.mark.parametrize("topology", PAPER_TOPOLOGIES)
def test_dp_from_the_flows_start_state_matches_a_cold_start(
    topology, engine, fast_config
):
    """DP handed the flow's clusters and traces and the lg analysis's
    score maps decides exactly as DP that builds and scores its own, and
    leaves the handed clusters and traces describing the final layout,
    after accepts and reverts alike."""
    lb = fast_config.lb
    flow = QGDPFlow(topology, fast_config)
    flow.place()
    flow.legalize(engine)
    lg_positions = flow.netlist.snapshot()
    netlist, bins = flow.netlist, flow.bins
    clusters = block_cluster_map(netlist.resonators, lb)
    traces = build_traces(netlist, lb, clusters)
    scores = {}
    layout_metrics(netlist, bins, fast_config, traces, clusters, scores)
    handed = DetailedPlacer(fast_config).run(
        netlist, bins, traces, clusters, scores
    )

    cold = QGDPFlow(topology, fast_config)
    cold.restore(lg_positions)
    own = DetailedPlacer(fast_config).run(
        cold.netlist, BinGrid.of_layout(cold.netlist, cold.grid)
    )
    assert handed == own
    assert netlist.snapshot() == cold.netlist.snapshot()
    assert clusters == block_cluster_map(cold.netlist.resonators, lb)
    assert traces == build_traces(cold.netlist, lb)


def test_dp_scores_build_no_qubit_hotspot_pairs(count_calls, fast_config):
    """A resonator's ``He`` sums only ``("e", key)`` ids, so no DP score,
    the start score or a window's re-score, builds qubit-qubit pairs."""
    flow = QGDPFlow("aspen11", fast_config)
    flow.place()
    flow.legalize("tetris")
    calls = count_calls(qubit_hotspot_pairs)
    result = DetailedPlacer(fast_config).run(flow.netlist, flow.bins)
    assert result.accepted > 0  # each accepted window was re-scored
    assert calls == []
