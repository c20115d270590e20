"""One-stop layout analysis: the Table III metrics and the Eq. 7 inputs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import QGDPConfig
from repro.frequency.hotspots import hotspot_report
from repro.geometry import gap_between
from repro.legalization.bins import BinGrid
from repro.metrics.integration import integration_ratio, total_clusters
from repro.metrics.legality import check_legality, qubit_spacing_violations
from repro.netlist.clusters import block_cluster_map
from repro.netlist.netlist import QuantumNetlist
from repro.netlist.traces import build_traces
from repro.routing.crossings import CrossingReport, count_crossings


@dataclass
class LayoutMetrics:
    """The Table III metric set plus legality information."""

    num_cells: int
    unified: int
    total_resonators: int
    clusters: int
    crossings: int
    ph_percent: float
    hq: int
    legality_violations: int
    spacing_violations: int

    @property
    def iedge(self) -> str:
        """Iedge formatted as the paper prints it, e.g. ``"37/40"``."""
        return f"{self.unified}/{self.total_resonators}"


def fidelity_inputs(
    netlist: QuantumNetlist,
    violations: list,
    hotspots: list,
    crossings: CrossingReport,
) -> dict:
    """The rows Eq. 7 folds over, in its fold order, as JSON-ready lists.

    ``qubit_pairs`` ``[a, b, gap, f_a, f_b]`` per spacing violation,
    ``bridges`` ``[qi, qj, oi, oj, f, f_o]`` per foreign block of
    ``(oi, oj)`` bridged by ``(qi, qj)``, ``crossings`` ``[ai, aj, bi, bj,
    count, f_a, f_b]`` per crossing trace pair, ``resonator_pairs``
    ``[ai, aj, bi, bj, contribution]`` per resonator hotspot pair.
    """
    def freq(key: tuple) -> float:
        return netlist.resonator(*key).frequency

    qubit_pairs = []
    for violation in violations:
        qa = netlist.qubit(violation.id_a[1])
        qb = netlist.qubit(violation.id_b[1])
        gap = gap_between(qa.rect, qb.rect)
        qubit_pairs.append(
            [qa.index, qb.index, gap, qa.frequency, qb.frequency]
        )
    return {
        "qubit_pairs": qubit_pairs,
        "bridges": [
            [*key, *owner[1], freq(key), freq(owner[1])]
            for key, owners in crossings.bridged_blocks.items()
            for owner in owners
        ],
        "crossings": [
            [*key_a, *key_b, count, freq(key_a), freq(key_b)]
            for (key_a, key_b), count in crossings.pair_crossings.items()
        ],
        "resonator_pairs": [
            [*pair.id_a[1], *pair.id_b[1], pair.contribution]
            for pair in hotspots
            if pair.id_a[0] == "e" and pair.id_b[0] == "e"
        ],
    }


def analyze_layout(
    netlist: QuantumNetlist,
    bins: BinGrid,
    config: QGDPConfig = None,
    traces: dict = None,
    clusters: dict = None,
    scores: dict = None,
) -> tuple:
    """Analyse the layout once: ``(LayoutMetrics, fidelity_inputs)``.

    One cluster map at ``config.lb`` (the grid's pitch) feeds Iedge, the
    cluster total and the one trace build that both the hotspot and the
    crossing analysis read.  ``clusters`` and ``traces`` supply the
    layout's map (as :func:`~repro.netlist.clusters.block_cluster_map`
    returns) and traces (as :func:`~repro.netlist.traces.build_traces`
    returns); each one left out is built here.  A ``scores`` dict is
    filled with the per-resonator ``"hotspots"`` (``He``) and
    ``"crossings"`` maps, the start state
    :meth:`~repro.detailed.placer.DetailedPlacer.run` accepts.
    """
    config = config or QGDPConfig()
    if clusters is None:
        clusters = block_cluster_map(netlist.resonators, config.lb)
    counts = {key: len(found) for key, found in clusters.items()}
    unified, total = integration_ratio(netlist, config.lb, counts)
    if traces is None:
        traces = build_traces(netlist, config.lb, clusters)
    hotspots = hotspot_report(
        netlist, config.reach, config.delta_c, config.lb, traces
    )
    crossings = count_crossings(netlist, bins, traces)
    if scores is not None:
        scores["hotspots"] = hotspots.per_resonator
        scores["crossings"] = crossings.per_resonator
    violations = qubit_spacing_violations(netlist, config.min_qubit_spacing)
    metrics = LayoutMetrics(
        num_cells=netlist.num_cells,
        unified=unified,
        total_resonators=total,
        clusters=total_clusters(netlist, config.lb, counts),
        crossings=crossings.total,
        ph_percent=hotspots.ph_percent,
        hq=hotspots.hq,
        legality_violations=len(check_legality(netlist, bins.grid)),
        spacing_violations=len(violations),
    )
    inputs = fidelity_inputs(netlist, violations, hotspots.pairs, crossings)
    return (metrics, inputs)


def layout_metrics(
    netlist: QuantumNetlist,
    bins: BinGrid,
    config: QGDPConfig = None,
    traces: dict = None,
    clusters: dict = None,
    scores: dict = None,
) -> LayoutMetrics:
    """Compute the full metric set on the current (legalized) layout.

    ``traces``, ``clusters`` and ``scores`` are passed on to
    :func:`analyze_layout`.
    """
    return analyze_layout(netlist, bins, config, traces, clusters, scores)[0]
