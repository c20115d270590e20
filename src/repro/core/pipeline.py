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
from repro.metrics.report import LayoutMetrics, layout_metrics
from repro.netlist.clusters import block_cluster_map
from repro.netlist.netlist import QuantumNetlist
from repro.netlist.traces import build_traces
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

    The occupancy (``flow.bins``), the cluster map (``flow.clusters``)
    and the MST traces (``flow.traces``) of the live layout are built
    once, outside every stage timer, and handed on: one cluster pass and
    one trace build serve the lg metrics, DP (which keeps both dicts
    current) and the dp metrics.  The lg analysis also fills
    ``flow.scores``, the per-resonator hotspot and crossing maps DP
    starts from, so DP does not score the layout it was handed again.
    Every stage that moves the layout replaces or resets them.
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
        #: Clusters of the live layout at ``config.lb``; None until built.
        self.clusters: Optional[dict] = None
        #: MST traces of the live layout at ``config.lb``; None until built.
        self.traces: Optional[dict] = None
        #: Per-resonator ``"hotspots"`` and ``"crossings"`` maps of the
        #: live layout; None until an analysis fills them.
        self.scores: Optional[dict] = None

    def place(self) -> StageReport:
        """Build the layout and run global placement: the ``gp`` report."""
        t0 = time.perf_counter()
        self.netlist, self.grid = build_layout(self.topology, self.config)
        self._reset(bins=None)
        gp = GlobalPlacer(self.config).run(self.netlist, self.grid)
        return self._report(
            "gp", t0, hpwl=gp.hpwl, max_bin_overflow=gp.max_bin_overflow
        )

    def restore(self, positions: dict) -> None:
        """Rebuild the layout at a stage snapshot; the occupancy, the
        clusters, the traces and the scores stay unset."""
        self.netlist, self.grid = build_layout(self.topology, self.config)
        self.netlist.restore(positions)
        self._reset(bins=None)

    def legalize(self, engine: str = "qgdp") -> StageReport:
        """Legalize the live layout with one engine (see
        :mod:`repro.legalization.engines`): the ``lg`` report."""
        t0 = time.perf_counter()
        lg = run_legalization(
            self.netlist, self.grid, get_engine(engine), self.config
        )
        self._reset(bins=lg.bins)
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
        An unset occupancy, cluster map or trace dict (after
        :meth:`restore`) is built from the layout first, outside the
        timed stage.  DP starts from ``flow.scores`` when an analysis of
        this layout filled them and scores the layout itself otherwise
        (the dp job, which runs no analysis first); it keeps the
        clusters and the traces current, and the scores are unset
        afterwards because DP may have moved the layout they describe.
        """
        bins = self._occupancy()
        clusters = self._clusters()
        traces = self._traces()
        t0 = time.perf_counter()
        dp = DetailedPlacer(self.config).run(
            self.netlist, bins, traces, clusters, self.scores
        )
        self.scores = None
        return self._report(
            "dp", t0, flagged=dp.flagged, accepted=dp.accepted, reverted=dp.reverted
        )

    def run(self, engine: str = "qgdp", detailed: bool = True) -> FlowResult:
        """Run GP → legalization → (optional) detailed placement.

        The lg and dp reports also carry the layout metrics after the
        stage, computed outside its ``runtime_s``.  DP that flags no
        window moves no block, no occupancy and no trace, so its report
        reuses the lg analysis instead of analysing the layout again.
        """
        result = FlowResult(topology_name=self.topology.name, engine=engine)
        result.stages.append(self.place())
        lg = self.legalize(engine)
        metrics = self._layout_metrics()
        result.stages.append(_with_metrics(lg, metrics))
        if detailed:
            dp = self.detail()
            if dp.metrics["flagged"]:
                metrics = self._layout_metrics()
            result.stages.append(_with_metrics(dp, metrics))
        return result

    def _report(self, stage: str, t0: float, **fields) -> StageReport:
        runtime_s = time.perf_counter() - t0
        return StageReport(stage, runtime_s, self.netlist.snapshot(), fields)

    def _reset(self, bins: Optional[BinGrid]) -> None:
        """The layout moved: take its occupancy, unset the rest."""
        self.bins = bins
        self.clusters = None
        self.traces = None
        self.scores = None

    def _occupancy(self) -> BinGrid:
        if self.bins is None:
            self.bins = BinGrid.of_layout(self.netlist, self.grid)
        return self.bins

    def _clusters(self) -> dict:
        if self.clusters is None:
            self.clusters = block_cluster_map(self.netlist.resonators, self.config.lb)
        return self.clusters

    def _traces(self) -> dict:
        if self.traces is None:
            self.traces = build_traces(self.netlist, self.config.lb, self._clusters())
        return self.traces

    def _layout_metrics(self) -> LayoutMetrics:
        scores = {}
        metrics = layout_metrics(
            self.netlist,
            self._occupancy(),
            self.config,
            traces=self._traces(),
            clusters=self._clusters(),
            scores=scores,
        )
        self.scores = scores
        return metrics


def _with_metrics(report: StageReport, metrics: LayoutMetrics) -> StageReport:
    """``report`` with the layout metrics ahead of its stage fields."""
    report.metrics = {**asdict(metrics), "iedge": metrics.iedge, **report.metrics}
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
