"""End-to-end flow."""

import time
from dataclasses import asdict

import pytest

from repro.core import QGDPConfig
from repro.core.pipeline import QGDPFlow, run_flow
from repro.metrics import check_legality


@pytest.fixture(scope="module")
def flow_result():
    cfg = QGDPConfig(gp_iterations=60)
    flow = QGDPFlow("falcon", cfg)
    result = flow.run(engine="qgdp", detailed=True)
    return (flow, result)


def test_stage_sequence(flow_result):
    _flow, result = flow_result
    assert [s.stage for s in result.stages] == ["gp", "lg", "dp"]
    assert result.final.stage == "dp"


def test_stage_lookup(flow_result):
    _flow, result = flow_result
    assert result.stage("lg").stage == "lg"
    with pytest.raises(KeyError):
        result.stage("nope")


def test_lg_metrics_present(flow_result):
    _flow, result = flow_result
    lg = result.stage("lg").metrics
    for key in (
        "iedge",
        "crossings",
        "ph_percent",
        "hq",
        "qubit_time_s",
        "resonator_time_s",
        "legality_violations",
    ):
        assert key in lg
    assert lg["legality_violations"] == 0


def test_dp_never_regresses_lg(flow_result):
    _flow, result = flow_result
    lg = result.stage("lg").metrics
    dp = result.stage("dp").metrics
    assert dp["clusters"] <= lg["clusters"]
    assert dp["ph_percent"] <= lg["ph_percent"] + 1e-9
    assert dp["crossings"] <= lg["crossings"]


def test_final_layout_legal(flow_result):
    flow, _result = flow_result
    assert check_legality(flow.netlist, flow.grid) == []


def test_positions_snapshot_per_stage(flow_result):
    _flow, result = flow_result
    gp = result.stage("gp").positions
    lg = result.stage("lg").positions
    assert set(gp) == set(lg)
    assert gp != lg  # legalization moved things


def test_stage_runtimes_exclude_layout_metrics(monkeypatch):
    """``runtime_s`` of lg and dp times the stage, not its metrics report
    nor the flow's shared trace build."""
    import repro.core.pipeline

    delay_s = 1.0
    real = repro.core.pipeline.layout_metrics
    real_build = repro.core.pipeline.build_traces
    built = []

    def slow_layout_metrics(*args, **kwargs):
        time.sleep(delay_s)
        return real(*args, **kwargs)

    def slow_build_traces(*args, **kwargs):
        built.append(True)
        time.sleep(delay_s)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(repro.core.pipeline, "layout_metrics", slow_layout_metrics)
    monkeypatch.setattr(repro.core.pipeline, "build_traces", slow_build_traces)
    _flow, result = run_flow("grid", config=QGDPConfig(gp_iterations=10))
    assert built == [True]
    assert result.stage("lg").runtime_s < delay_s
    assert result.stage("dp").runtime_s < delay_s


def test_flow_builds_each_intermediate_once(monkeypatch, count_calls):
    """One whole-layout cluster pass and one trace build per flow, shared
    by the lg analysis, DP and the dp analysis, and DP starts from the lg
    analysis's scores: on grid it scores only its 6 re-placed windows
    (8 flagged, 2 with no feasible re-placement).  Counts, not timings,
    so a rebuild cannot creep back."""
    import repro.detailed.placer
    from repro.netlist.clusters import block_cluster_map
    from repro.netlist.traces import build_traces

    builds = count_calls(build_traces)
    passes = count_calls(block_cluster_map)
    hotspots = _record_calls(monkeypatch, repro.detailed.placer, "resonator_hotspots")
    crossings = _record_calls(monkeypatch, repro.detailed.placer, "count_crossings")
    result = QGDPFlow("grid").run("qgdp", detailed=True)
    dp = result.stage("dp").metrics
    assert (dp["flagged"], dp["accepted"]) == (8, 0)
    assert len(builds) == 1
    assert len([args for args in passes if len(args[0]) > 1]) == 1
    assert (len(hotspots), len(crossings)) == (6, 6)


def _record_calls(monkeypatch, module, name: str) -> list:
    """Record the positional arguments of each call of ``module.name``."""
    calls = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def _count_layout_metrics(monkeypatch) -> list:
    """Record each ``layout_metrics`` call the flow makes."""
    import repro.core.pipeline

    return _record_calls(monkeypatch, repro.core.pipeline, "layout_metrics")


def test_unflagged_dp_reuses_the_lg_analysis(monkeypatch):
    """DP that flags no window leaves the layout as LG left it, so the
    flow analyses it once; the dp report still carries the full metrics
    of the final layout, in the usual key order."""
    from repro.metrics.report import layout_metrics

    calls = _count_layout_metrics(monkeypatch)
    flow = QGDPFlow("falcon")
    result = flow.run("qgdp", detailed=True)
    dp = result.stage("dp").metrics
    assert (dp["flagged"], dp["accepted"]) == (0, 0)
    assert len(calls) == 1
    metrics = layout_metrics(flow.netlist, flow.bins, flow.config)
    expected = {
        **asdict(metrics),
        "iedge": metrics.iedge,
        "flagged": 0,
        "accepted": 0,
        "reverted": 0,
    }
    assert list(dp.items()) == list(expected.items())
    assert result.stage("dp").positions == result.stage("lg").positions


def test_flagged_dp_is_analysed_again(monkeypatch):
    """DP that flags windows re-analyses the layout, even when it
    accepts none of them."""
    calls = _count_layout_metrics(monkeypatch)
    result = QGDPFlow("grid").run("qgdp", detailed=True)
    dp = result.stage("dp").metrics
    assert (dp["flagged"], dp["accepted"]) == (8, 0)
    assert len(calls) == 2


def test_run_flow_convenience():
    flow, result = run_flow(
        "grid", engine="tetris", detailed=False, config=QGDPConfig(gp_iterations=40)
    )
    assert [s.stage for s in result.stages] == ["gp", "lg"]
    assert flow.netlist is not None


def test_flow_accepts_topology_object():
    from repro.topologies import get_topology

    flow = QGDPFlow(get_topology("grid"), QGDPConfig(gp_iterations=10))
    assert flow.topology.name == "grid"


def test_empty_flow_result_raises():
    from repro.core.result import FlowResult

    with pytest.raises(ValueError):
        FlowResult("grid", "qgdp").final
