"""The end-to-end qGDP flow: build → GP → LG → DP with stage reports."""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Optional

from repro.core.config import QGDPConfig
from repro.core.result import FlowResult, StageReport
from repro.detailed.placer import DetailedPlacer
from repro.geometry import SiteGrid
from repro.legalization.bins import BinGrid
from repro.legalization.engines import get_engine, run_legalization
from repro.metrics.report import layout_metrics
from repro.netlist.netlist import QuantumNetlist
from repro.placement.builder import build_layout
from repro.placement.global_placer import GlobalPlacer
from repro.topologies.base import Topology
from repro.topologies.registry import get_topology


class QGDPFlow:
    """Drives one topology through the full placement flow.

    Typical use::

        flow = QGDPFlow("falcon")
        result = flow.run(engine="qgdp", detailed=True)
        print(result.final.metrics["ph_percent"])

    :meth:`place`, :meth:`legalize` and :meth:`detail` each run one stage
    on the live layout and return its report; :meth:`run` chains them,
    and the orchestration layer's gp/lg/dp jobs call one each on a flow
    resumed at the upstream snapshot with :meth:`restore`.  After
    :meth:`run`, ``flow.netlist`` and ``flow.bins`` hold the final layout
    for further analysis (fidelity evaluation, visualization...).
    """

    #: The live layout, set by :meth:`place` or :meth:`restore`.
    netlist: QuantumNetlist
    grid: SiteGrid

    def __init__(self, topology, config: QGDPConfig = None) -> None:
        self.topology = (
            topology if isinstance(topology, Topology) else get_topology(topology)
        )
        self.config = config or QGDPConfig()
        #: The live occupancy; None until a stage builds it.
        self.bins: Optional[BinGrid] = None

    def place(self) -> StageReport:
        """Build the layout and run global placement: the ``gp`` report."""
        t0 = time.perf_counter()
        self.netlist, self.grid = build_layout(self.topology, self.config)
        self.bins = None
        gp = GlobalPlacer(self.config).run(self.netlist, self.grid)
        return self._report(
            "gp", t0, hpwl=gp.hpwl, max_bin_overflow=gp.max_bin_overflow
        )

    def restore(self, positions: dict) -> None:
        """Rebuild the layout at a stage snapshot; the occupancy stays unset."""
        self.netlist, self.grid = build_layout(self.topology, self.config)
        self.netlist.restore(positions)
        self.bins = None

    def legalize(self, engine: str = "qgdp") -> StageReport:
        """Legalize the live layout with one engine (see
        :mod:`repro.legalization.engines`): the ``lg`` report."""
        t0 = time.perf_counter()
        lg = run_legalization(
            self.netlist, self.grid, get_engine(engine), self.config
        )
        self.bins = lg.bins
        return self._report(
            "lg",
            t0,
            qubit_time_s=lg.qubit_time_s,
            resonator_time_s=lg.resonator_time_s,
            qubit_displacement=lg.qubit_displacement,
            qubit_spacing_used=lg.qubit_spacing_used,
            qubit_attempts=lg.qubit_attempts,
        )

    def detail(self) -> StageReport:
        """Detailed placement of the live legal layout: the ``dp`` report.

        Only meaningful on top of qGDP-LG, but applies after any engine.
        An unset occupancy (after :meth:`restore`) is rebuilt from the
        layout first, outside the timed stage.
        """
        bins = self._occupancy()
        t0 = time.perf_counter()
        dp = DetailedPlacer(self.config).run(self.netlist, bins)
        return self._report(
            "dp", t0, flagged=dp.flagged, accepted=dp.accepted, reverted=dp.reverted
        )

    def run(self, engine: str = "qgdp", detailed: bool = True) -> FlowResult:
        """Run GP → legalization → (optional) detailed placement.

        The lg and dp reports also carry the layout metrics after the
        stage, computed outside its ``runtime_s``.
        """
        result = FlowResult(topology_name=self.topology.name, engine=engine)
        result.stages.append(self.place())
        result.stages.append(self._with_metrics(self.legalize(engine)))
        if detailed:
            result.stages.append(self._with_metrics(self.detail()))
        return result

    def _report(self, stage: str, t0: float, **fields) -> StageReport:
        runtime_s = time.perf_counter() - t0
        return StageReport(stage, runtime_s, self.netlist.snapshot(), fields)

    def _occupancy(self) -> BinGrid:
        if self.bins is None:
            self.bins = BinGrid.of_layout(self.netlist, self.grid)
        return self.bins

    def _with_metrics(self, report: StageReport) -> StageReport:
        metrics = layout_metrics(self.netlist, self._occupancy(), self.config)
        report.metrics = {
            **asdict(metrics),
            "iedge": metrics.iedge,
            **report.metrics,
        }
        return report


def run_flow(
    topology,
    engine: str = "qgdp",
    detailed: bool = True,
    config: QGDPConfig = None,
) -> tuple:
    """One-call convenience: returns ``(flow, FlowResult)``."""
    flow = QGDPFlow(topology, config)
    return (flow, flow.run(engine=engine, detailed=detailed))
