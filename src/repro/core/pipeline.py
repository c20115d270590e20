"""The end-to-end qGDP flow: build → GP → LG → DP with stage reports."""

from __future__ import annotations

import time

from repro.core.config import QGDPConfig
from repro.core.result import FlowResult, StageReport
from repro.detailed.placer import DetailedPlacer
from repro.legalization.engines import get_engine, run_legalization
from repro.metrics.report import layout_metrics
from repro.netlist.pseudo import ConnectionStyle
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

    After :meth:`run`, ``flow.netlist`` and ``flow.bins`` hold the final
    layout for further analysis (fidelity evaluation, visualization...).
    """

    def __init__(self, topology, config: QGDPConfig = None) -> None:
        self.topology = (
            topology if isinstance(topology, Topology) else get_topology(topology)
        )
        self.config = config or QGDPConfig()
        self.netlist = None
        self.grid = None
        self.bins = None

    def _metrics_dict(self) -> dict:
        metrics = layout_metrics(self.netlist, self.bins, self.config)
        return {
            "num_cells": metrics.num_cells,
            "unified": metrics.unified,
            "total_resonators": metrics.total_resonators,
            "iedge": metrics.iedge,
            "clusters": metrics.clusters,
            "crossings": metrics.crossings,
            "ph_percent": metrics.ph_percent,
            "hq": metrics.hq,
            "legality_violations": metrics.legality_violations,
            "spacing_violations": metrics.spacing_violations,
        }

    def run(
        self,
        engine: str = "qgdp",
        detailed: bool = True,
        seed: int = None,
        style: ConnectionStyle = ConnectionStyle.PSEUDO,
    ) -> FlowResult:
        """Run GP → legalization → (optional) detailed placement.

        ``engine`` picks the legalization strategy (see
        :mod:`repro.legalization.engines`); the detailed placer only makes
        sense on top of qGDP-LG but can be applied after any engine.
        """
        cfg = self.config
        result = FlowResult(topology_name=self.topology.name, engine=engine)

        t0 = time.perf_counter()
        self.netlist, self.grid = build_layout(self.topology, cfg)
        placer = GlobalPlacer(cfg)
        gp_summary = placer.run(
            self.netlist, self.grid, style=style, seed=seed
        )
        result.stages.append(
            StageReport(
                stage="gp",
                runtime_s=time.perf_counter() - t0,
                positions=self.netlist.snapshot(),
                metrics={
                    "hpwl": gp_summary.hpwl,
                    "max_bin_overflow": gp_summary.max_bin_overflow,
                },
            )
        )

        t0 = time.perf_counter()
        outcome = run_legalization(
            self.netlist, self.grid, get_engine(engine), cfg
        )
        lg_time_s = time.perf_counter() - t0
        self.bins = outcome.bins
        lg_metrics = self._metrics_dict()
        lg_metrics.update(
            {
                "qubit_time_s": outcome.qubit_time_s,
                "resonator_time_s": outcome.resonator_time_s,
                "qubit_displacement": outcome.qubit_displacement,
                "qubit_spacing_used": outcome.qubit_spacing_used,
            }
        )
        result.stages.append(
            StageReport(
                stage="lg",
                runtime_s=lg_time_s,
                positions=self.netlist.snapshot(),
                metrics=lg_metrics,
            )
        )

        if detailed:
            t0 = time.perf_counter()
            dp_summary = DetailedPlacer(cfg).run(self.netlist, self.bins)
            dp_time_s = time.perf_counter() - t0
            dp_metrics = self._metrics_dict()
            dp_metrics.update(
                {
                    "flagged": dp_summary.flagged,
                    "accepted": dp_summary.accepted,
                    "reverted": dp_summary.reverted,
                }
            )
            result.stages.append(
                StageReport(
                    stage="dp",
                    runtime_s=dp_time_s,
                    positions=self.netlist.snapshot(),
                    metrics=dp_metrics,
                )
            )
        return result


def run_flow(
    topology,
    engine: str = "qgdp",
    detailed: bool = True,
    config: QGDPConfig = None,
    seed: int = None,
) -> tuple:
    """One-call convenience: returns ``(flow, FlowResult)``."""
    flow = QGDPFlow(topology, config)
    result = flow.run(engine=engine, detailed=detailed, seed=seed)
    return (flow, result)
