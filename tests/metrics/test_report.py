"""The one layout analysis: ``analyze_layout`` and ``layout_metrics``."""

import pytest

from repro.circuits import get_benchmark
from repro.compiler import transpile
from repro.core.config import QGDPConfig
from repro.core.pipeline import QGDPFlow
from repro.crosstalk import program_fidelity
from repro.frequency import hotspots as hotspots_module
from repro.frequency.hotspots import hotspot_pairs, hotspot_report
from repro.metrics import report as report_module
from repro.metrics.report import analyze_layout, layout_metrics
from repro.netlist import traces as traces_module
from repro.routing import count_crossings
from repro.routing import crossings as crossings_module

#: A coarser site pitch than the default ``lb=1.0``.
LB2_CONFIG = QGDPConfig(
    lb=2.0,
    qubit_size=6.0,
    min_qubit_spacing=2.0,
    initial_qubit_spacing=6.0,
    reach=4.0,
    gp_iterations=60,
)


@pytest.fixture(scope="module")
def lb2_flow():
    flow = QGDPFlow("grid", LB2_CONFIG)
    flow.place()
    flow.legalize("tetris")
    return flow


def test_ph_honours_the_config_lb(lb2_flow):
    netlist, config = lb2_flow.netlist, LB2_CONFIG
    report = hotspot_report(netlist, config.reach, config.delta_c, lb=config.lb)
    metrics = layout_metrics(netlist, lb2_flow.bins, config)
    assert report.ph_percent > 0.0
    assert metrics.ph_percent == report.ph_percent
    assert metrics.hq == report.hq


def test_lazy_fidelity_honours_the_config_lb(lb2_flow):
    netlist, config = lb2_flow.netlist, LB2_CONFIG
    transpiled = transpile(get_benchmark("bv-9"), lb2_flow.topology, seed=3)
    crossings = count_crossings(netlist, lb2_flow.bins)
    eager = program_fidelity(
        netlist,
        transpiled,
        crossings,
        config,
        hotspots=hotspot_pairs(
            netlist, config.reach, config.delta_c, lb=config.lb
        ),
    )
    assert program_fidelity(netlist, transpiled, crossings, config) == eager


def test_layout_metrics_is_the_analysis_metrics(lb2_flow):
    metrics, inputs = analyze_layout(
        lb2_flow.netlist, lb2_flow.bins, LB2_CONFIG
    )
    assert layout_metrics(lb2_flow.netlist, lb2_flow.bins, LB2_CONFIG) == metrics
    assert set(inputs) == {
        "qubit_pairs",
        "bridges",
        "crossings",
        "resonator_pairs",
    }
    assert len(inputs["qubit_pairs"]) == metrics.spacing_violations
    assert len(inputs["bridges"]) + sum(
        row[4] for row in inputs["crossings"]
    ) == metrics.crossings


def test_analysis_builds_the_traces_once(lb2_flow, monkeypatch):
    # The hotspot walk and the crossing count share one trace build.
    built = []

    def counting_build(netlist, lb, clusters=None):
        built.append(lb)
        return traces_module.build_traces(netlist, lb, clusters)

    for module in (report_module, hotspots_module, crossings_module):
        monkeypatch.setattr(module, "build_traces", counting_build, raising=False)
    analyze_layout(lb2_flow.netlist, lb2_flow.bins, LB2_CONFIG)
    assert built == [LB2_CONFIG.lb]
