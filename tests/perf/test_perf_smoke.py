"""Perf smoke guards: the qGDP hot paths must stay interactive.

One small end-to-end flow (place → legalize → detailed-place on a 5×5
qubit grid), analysis-kernel guards (legalize + MST trace build +
crossing count on 12×12 and 16×16 grids), a 24×24 legalize-only guard
(576 qubits — the BENCH_scaling ceiling), a qubit-LP guard
(``legalize_qubits`` alone on the GP'd 48×48 grid, 2,304 qubits, in
``test_legalize_qubits_48x48_within_budget``), the full 24×24 flow with
its one layout-metric pass, one cluster pass and one trace build, a
batched trace-build guard (``build_traces`` alone on the finished 24×24
layout, its clusters handed in), a global-placement guard
(``GlobalPlacer.run`` alone on the built 32×32 layout, in
``test_gp_32x32_within_budget``), a nearby-pair scan guard (legality,
spacing and qubit hotspots on a 2,304-qubit lattice), a column-packed
pair-scan guard (``near_pairs`` on a 500×500 lattice of unit boxes), an
integration-aware LG guard (Algorithm 1 alone at 32×32, from a GP
snapshot), a cache-server round-trip
guard (50 artifacts pushed and read back through a live
``serve-cache``), a coordinator-drain guard (the paper sweep's job
DAG leased and completed in-process), a paper-protocol kernels guard
(the cold sweep's 12 Abacus and 12 Tetris calls from GP snapshots, its
42 transpile batches, 72 layout builds and 36 occupancy rebuilds) and a
warm-resume guard (the paper protocol's 156 jobs resumed from a filled
cache, reading and decoding only the 42 fidelity payloads its rows
read, checking that the rest exist, and planned with each shared params
document encoded once),
each with a *generous* wall-clock budget — an order of magnitude above
the implementations' typical time, but far below a genuine regression, so
only a real hot-path, protocol-overhead or scheduler regression trips
them.  Part of the tier-1 run; select just these guards with
``pytest -m perf_smoke``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import repro.core.pipeline as pipeline
import repro.legalization.engines as engines
from repro.circuits import PAPER_BENCHMARKS
from repro.core.config import QGDPConfig
from repro.orchestration.stages import run_transpile_job
from repro.orchestration import (
    ArtifactStore,
    CacheServer,
    DirBackend,
    FleetCoordinator,
    JobGraph,
    RemoteHTTPBackend,
    SweepSpec,
    TieredStore,
    plan_sweep,
    run_sweep,
    serialize_graph,
)
from repro.core.pipeline import QGDPFlow
from repro.detailed import DetailedPlacer
from repro.frequency.hotspots import qubit_hotspot_pairs
from repro.geometry import SiteGrid, near_pairs
from repro.legalization import (
    PAPER_ENGINE_ORDER,
    BinGrid,
    get_engine,
    integration_aware_legalize,
    legalize_qubits,
    run_legalization,
)
from repro.metrics import (
    check_legality,
    integration_ratio,
    qubit_spacing_violations,
)
from repro.netlist import QuantumNetlist, Qubit, Resonator, WireBlock
from repro.netlist.clusters import block_cluster_map
from repro.placement import GlobalPlacer, build_layout
from repro.routing.crossings import build_traces, count_crossings
from repro.topologies import PAPER_TOPOLOGIES, get_topology, grid_topology

#: Budget for legalization + detailed placement on a 5x5 grid, seconds.
#: Typical: ~0.07 s array-backed; ~1.1 s for the pre-array seed code.
SMOKE_BUDGET_S = 10.0

#: Budget for legalize + trace build + crossing count on a 12x12 grid,
#: seconds.  Typical: ~0.09 s with the vectorized kernels (~0.16 s for
#: their scalar predecessors); the generous ceiling only trips on a
#: complexity-class regression in one of the three analysis kernels.
KERNEL_BUDGET_S = 5.0

#: Budget for legalize + trace build + crossing count on a 16x16 grid
#: (256 qubits), seconds.  Typical: ~0.4 s with the batched cluster and
#: orientation kernels; generous so CI machine noise never trips it.
KERNEL_16_BUDGET_S = 10.0

#: Budget for legalization alone on a 24x24 grid (576 qubits), seconds.
#: Typical: ~0.5 s with the warm-started, arc-reduced LP (~3 s for the
#: cold full-graph solve); trips only on a complexity-class regression
#: in the LP assembly, presolve or resonator pass.
LEGALIZE_24_BUDGET_S = 20.0

#: Budget for the qubit LP alone (``legalize_qubits``: every spacing
#: attempt's constraint arrays, transitive reduction, presolve sweeps,
#: solve and snap repair) on the GP'd 48x48 grid (2,304 qubits), seconds.
#: Typical: ~1.0 s on a 2-vCPU host, most of it the reduction's dense
#: reachability; trips only on a complexity-class regression, e.g. a
#: sweep that walks every arc per node.
LEGALIZE_QUBITS_48_BUDGET_S = 10.0

#: Budget for the full 24x24 flow (build, GP, legalize, DP and the one
#: layout-metric pass: DP flags no window, so the dp report reuses the lg
#: analysis), seconds.  Typical: ~0.5-0.7 s on a 2-vCPU host with one
#: cluster pass and one batched trace build shared by the analysis and
#: DP, array-backed legality and the spring-matrix GP (~1.7-1.9 s with a
#: trace build per analysis and per DP run; ~8 s when legality, spacing
#: and qubit hotspots walked every pair or a 3x3 bucket hash).
FLOW_24_BUDGET_S = 40.0

#: Budget for ``build_traces`` alone on the finished 24x24 layout (1,104
#: resonators) with its clusters handed in, seconds.  Typical: ~20 ms on
#: a 2-vCPU host with one batched Prim (~55 ms with a NumPy Prim per
#: resonator); trips only on a complexity-class regression, e.g. a
#: scalar closest-pair scan per set pair.
TRACES_24_BUDGET_S = 0.25

#: Budget for ``GlobalPlacer.run`` alone on the built 32x32 layout
#: (1,024 qubits, 250 iterations), seconds.  Typical: ~0.3-0.4 s on a
#: 2-vCPU host with the CSR spring matrix and reused density buffers
#: (~0.6 s with ``np.bincount`` spring scatters, ``np.pad`` and
#: ``np.gradient``; ~2.9 s with ``np.add.at``); trips only on a
#: complexity-class regression in the force loop.
GP_32_BUDGET_S = 4.0

#: Budget for check_legality, qubit_spacing_violations and
#: qubit_hotspot_pairs on a 2,304-qubit lattice with planted
#: violations, seconds.  Typical: ~0.4 s with near_pairs; the all-pairs
#: qubit loops alone took ~23 s, so only a return to a quadratic scan
#: trips it.
PAIR_SCANS_BUDGET_S = 4.0

#: Budget for ``near_pairs(lo, hi, -1e-6)`` on a packed 500x500 lattice
#: of unit boxes (250,000 boxes; each site column is one ``xlo`` group),
#: seconds.  Typical: ~0.1 s with column-group windows; the x-only sweep
#: expanded every box's whole column (62 million candidates, ~3 s).
NEAR_PAIRS_LATTICE_BUDGET_S = 1.0

#: Budget for Algorithm 1 alone (integration-aware resonator LG) on a
#: 32x32 grid from its GP snapshot, with the qubit LP outside the timer,
#: seconds.  Typical: ~0.2 s on a 2-vCPU host on flat site arithmetic
#: (~0.4-0.6 s probing bins one site at a time); trips only on a
#: complexity-class regression, e.g. a whole-grid scan per block.
INTEGRATION_32_BUDGET_S = 3.0

#: Budget for 50 artifacts pushed and read back through a live cache
#: server over loopback HTTP, seconds.  Typical: well under 0.5 s; the
#: ceiling trips only on a per-request overhead regression (connection
#: churn, payload re-encoding, server-side scans per artifact).
CACHE_SERVER_BUDGET_S = 15.0

#: Budget for draining a 2,424-job DAG (28 paper sweeps that differ in
#: their mapping seeds) through an in-process coordinator — one lease
#: and one complete per job, nothing executed — in seconds.  Typical:
#: ~0.016 s with the ready/deadline heaps and running state counts;
#: ~1.3 s when lease and complete walk every job, which every local
#: sweep would pay on top of its compute.
COORDINATOR_DRAIN_BUDGET_S = 0.25

#: Budget for the largest compute layers of a cold paper sweep — the 12
#: Abacus and 12 Tetris calls (six topologies x {abacus, q-abacus} and
#: {tetris, q-tetris}, from GP snapshots), the 42 transpile batches
#: (2,100 mapped, routed and scheduled programs), 72 layout builds with
#: their frequency plans and the 36 occupancy rebuilds of the analyze and
#: dp jobs — in seconds.  Typical: ~1.1–1.5 s on a 2-vCPU host with the
#: Abacus segment bound, the Tetris next-free index and the one-pass
#: rebuild (~1.7–2.0 s with every segment priced, a NumPy probe per Tetris
#: row and a per-block rebuild; the three older layers took ~4 s alone
#: with cloned trial segments, a routed-gate list and the squared line
#: graph).
PAPER_KERNELS_BUDGET_S = 20.0

#: Budget for resuming the full paper protocol (156 jobs) from a filled
#: directory cache, planning included, in seconds.  Typical: ~0.010 s on
#: a 2-vCPU host reading and decoding only the 42 fidelity payloads the
#: rows read and checking that the other 114 artifacts exist (~0.011 s
#: with one fidelity payload per cell, 210 of them; ~0.018 s when all
#: 324 texts of that plan, 2.4 MB, were read; 0.08–0.18 s when every one
#: of them was also decoded).
WARM_RESUME_BUDGET_S = 1.0

#: Budget for planning the paper protocol's 156 jobs alone (``plan_sweep``,
#: best of 5), in seconds: 10x the 3.5 ms measured on a 2-vCPU host with
#: each shared params document (config, noise, seed list) encoded once
#: per plan and 324 jobs planned (7.3–7.8 ms when every job key encoded
#: them again); 156 jobs plan in 2.4–3.5 ms there.
PAPER_PLAN_BUDGET_S = 0.035


@pytest.mark.perf_smoke
def test_flow_5x5_within_budget():
    cfg = QGDPConfig()
    netlist, grid = build_layout(grid_topology(5), cfg)
    GlobalPlacer(cfg).run(netlist, grid)

    t0 = time.perf_counter()
    outcome = run_legalization(netlist, grid, get_engine("qgdp"), cfg)
    DetailedPlacer(cfg).run(netlist, outcome.bins)
    elapsed = time.perf_counter() - t0

    assert check_legality(netlist, grid) == []
    unified, total = integration_ratio(netlist)
    assert unified >= 0.9 * total
    assert elapsed < SMOKE_BUDGET_S, (
        f"legalize+detailed took {elapsed:.2f}s on a 5x5 grid "
        f"(budget {SMOKE_BUDGET_S}s) — hot-path regression?"
    )


@pytest.mark.perf_smoke
def test_analysis_kernels_12x12_within_budget():
    cfg = QGDPConfig()
    netlist, grid = build_layout(grid_topology(12), cfg)
    GlobalPlacer(cfg).run(netlist, grid)

    t0 = time.perf_counter()
    outcome = run_legalization(netlist, grid, get_engine("qgdp"), cfg)
    traces = build_traces(netlist, cfg.lb)
    report = count_crossings(netlist, outcome.bins, traces=traces)
    elapsed = time.perf_counter() - t0

    assert check_legality(netlist, grid) == []
    assert report.total >= 0 and len(report.per_resonator) > 0
    assert elapsed < KERNEL_BUDGET_S, (
        f"legalize+traces+crossings took {elapsed:.2f}s on a 12x12 grid "
        f"(budget {KERNEL_BUDGET_S}s) — analysis-kernel regression?"
    )


@pytest.mark.perf_smoke
def test_analysis_kernels_16x16_within_budget():
    cfg = QGDPConfig()
    netlist, grid = build_layout(grid_topology(16), cfg)
    GlobalPlacer(cfg).run(netlist, grid)

    t0 = time.perf_counter()
    outcome = run_legalization(netlist, grid, get_engine("qgdp"), cfg)
    traces = build_traces(netlist, cfg.lb)
    report = count_crossings(netlist, outcome.bins, traces=traces)
    elapsed = time.perf_counter() - t0

    assert check_legality(netlist, grid) == []
    assert report.total >= 0 and len(report.per_resonator) > 0
    assert elapsed < KERNEL_16_BUDGET_S, (
        f"legalize+traces+crossings took {elapsed:.2f}s on a 16x16 grid "
        f"(budget {KERNEL_16_BUDGET_S}s) — analysis-kernel regression?"
    )


@pytest.mark.perf_smoke
def test_legalize_24x24_within_budget():
    cfg = QGDPConfig()
    netlist, grid = build_layout(grid_topology(24), cfg)
    GlobalPlacer(cfg).run(netlist, grid)

    t0 = time.perf_counter()
    run_legalization(netlist, grid, get_engine("qgdp"), cfg)
    elapsed = time.perf_counter() - t0

    assert check_legality(netlist, grid) == []
    assert elapsed < LEGALIZE_24_BUDGET_S, (
        f"legalization took {elapsed:.2f}s on a 24x24 grid "
        f"(budget {LEGALIZE_24_BUDGET_S}s) — LP/resonator regression?"
    )


@pytest.mark.perf_smoke
def test_legalize_qubits_48x48_within_budget():
    cfg = QGDPConfig()
    netlist, grid = build_layout(grid_topology(48), cfg)
    GlobalPlacer(cfg).run(netlist, grid)

    t0 = time.perf_counter()
    result = legalize_qubits(netlist, grid, cfg)
    elapsed = time.perf_counter() - t0

    assert result.feasible
    assert qubit_spacing_violations(netlist, cfg.min_qubit_spacing) == []
    assert all(
        (q.x - q.w / 2.0) % cfg.lb == 0.0 and (q.y - q.h / 2.0) % cfg.lb == 0.0
        for q in netlist.qubits
    )
    assert elapsed < LEGALIZE_QUBITS_48_BUDGET_S, (
        f"qubit legalization took {elapsed:.2f}s on a 48x48 grid "
        f"(budget {LEGALIZE_QUBITS_48_BUDGET_S}s) — qubit-LP regression?"
    )


@pytest.mark.perf_smoke
def test_flow_24x24_within_budget(monkeypatch, count_calls):
    analyses = []
    layout_metrics = pipeline.layout_metrics

    def counting(*args, **kwargs):
        analyses.append(True)
        return layout_metrics(*args, **kwargs)

    monkeypatch.setattr(pipeline, "layout_metrics", counting)
    builds = count_calls(build_traces)
    passes = count_calls(block_cluster_map)
    t0 = time.perf_counter()
    result = QGDPFlow(grid_topology(24)).run("qgdp", detailed=True)
    elapsed = time.perf_counter() - t0

    metrics = result.final.metrics
    assert metrics["legality_violations"] == 0
    assert metrics["spacing_violations"] == 0
    assert metrics["flagged"] == 0
    assert len(analyses) == 1, "the unchanged dp layout was analysed again"
    assert len(builds) == 1, "the traces were built more than once"
    assert len([args for args in passes if len(args[0]) > 1]) == 1, (
        "the layout's clusters were extracted more than once"
    )
    assert elapsed < FLOW_24_BUDGET_S, (
        f"the 24x24 flow took {elapsed:.2f}s "
        f"(budget {FLOW_24_BUDGET_S}s) — flow or layout-metrics regression?"
    )


@pytest.mark.perf_smoke
def test_trace_build_24x24_within_budget():
    flow = QGDPFlow(grid_topology(24))
    flow.run("qgdp", detailed=True)
    clusters = block_cluster_map(flow.netlist.resonators, flow.config.lb)

    elapsed = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        traces = build_traces(flow.netlist, flow.config.lb, clusters)
        elapsed = min(elapsed, time.perf_counter() - t0)

    assert traces == flow.traces
    assert elapsed < TRACES_24_BUDGET_S, (
        f"build_traces took {elapsed:.3f}s on the 24x24 layout "
        f"(budget {TRACES_24_BUDGET_S}s) — trace-kernel regression?"
    )


@pytest.mark.perf_smoke
def test_gp_32x32_within_budget():
    cfg = QGDPConfig()
    netlist, grid = build_layout(grid_topology(32), cfg)

    t0 = time.perf_counter()
    result = GlobalPlacer(cfg).run(netlist, grid)
    elapsed = time.perf_counter() - t0

    assert result.iterations == cfg.gp_iterations
    assert np.isfinite(result.hpwl) and result.max_bin_overflow > 0
    assert elapsed < GP_32_BUDGET_S, (
        f"global placement took {elapsed:.2f}s on a 32x32 grid "
        f"(budget {GP_32_BUDGET_S}s) — force-loop regression?"
    )


def _lattice_netlist(side: int) -> QuantumNetlist:
    """``side``² 3x3 qubits at pitch 4 (gap 1 = min spacing), one wire
    block in each horizontal channel; every sixth column is shifted half
    a site left, onto its channel's block and 0.5 from its neighbour."""
    netlist = QuantumNetlist()
    for row in range(side):
        for col in range(side):
            netlist.add_qubit(
                Qubit(
                    index=row * side + col,
                    w=3,
                    h=3,
                    x=2.5 + 4.0 * col - (0.5 if col % 6 == 5 else 0.0),
                    y=2.5 + 4.0 * row,
                    frequency=5.0 + 0.01 * ((row + col) % 3),
                )
            )
    for row in range(side):
        for col in range(side - 1):
            qi = row * side + col
            resonator = netlist.add_resonator(
                Resonator(qi=qi, qj=qi + 1, wirelength=1.0)
            )
            resonator.blocks = [
                WireBlock(
                    resonator_key=resonator.key,
                    ordinal=0,
                    x=4.5 + 4.0 * col,
                    y=2.5 + 4.0 * row,
                )
            ]
    return netlist


@pytest.mark.perf_smoke
def test_pair_scans_2304_qubits_within_budget():
    side = 48
    netlist = _lattice_netlist(side)
    grid = SiteGrid(4 * side + 2, 4 * side + 2)
    planted = side * (side // 6)

    t0 = time.perf_counter()
    overlaps = check_legality(netlist, grid)
    spacing = qubit_spacing_violations(netlist, 1.0)
    hotspots = qubit_hotspot_pairs(netlist, 2.0, 0.04)
    elapsed = time.perf_counter() - t0

    assert len(overlaps) == planted
    assert all(v.kind == "overlap" for v in overlaps)
    assert len(spacing) == planted
    assert hotspots
    assert elapsed < PAIR_SCANS_BUDGET_S, (
        f"legality+spacing+hotspot scans took {elapsed:.2f}s on "
        f"{side * side} qubits (budget {PAIR_SCANS_BUDGET_S}s) — "
        "is a scan walking every pair again?"
    )


@pytest.mark.perf_smoke
def test_near_pairs_packed_lattice_within_budget():
    col, row = np.meshgrid(np.arange(500), np.arange(500), indexing="ij")
    lo = np.column_stack([col.ravel(), row.ravel()]).astype(np.float64)

    t0 = time.perf_counter()
    pairs = near_pairs(lo, lo + 1.0, -1e-6)
    elapsed = time.perf_counter() - t0

    assert pairs.shape == (0, 2)  # edge-to-edge boxes never overlap
    assert elapsed < NEAR_PAIRS_LATTICE_BUDGET_S, (
        f"near_pairs took {elapsed:.2f}s on {len(lo)} column-packed boxes "
        f"(budget {NEAR_PAIRS_LATTICE_BUDGET_S}s) — does a box scan its "
        "whole column again?"
    )


@pytest.mark.perf_smoke
def test_integration_legalize_32x32_within_budget():
    cfg = QGDPConfig()
    netlist, grid = build_layout(grid_topology(32), cfg)
    GlobalPlacer(cfg).run(netlist, grid)
    legalize_qubits(netlist, grid, cfg)
    bins = BinGrid(grid)
    for qubit in netlist.qubits:
        bins.occupy_rect(qubit.rect, qubit.node_id)

    t0 = time.perf_counter()
    result = integration_aware_legalize(netlist.resonators, bins, netlist)
    elapsed = time.perf_counter() - t0

    assert len(result.placed) == len(netlist.wire_blocks)
    assert check_legality(netlist, grid) == []
    assert elapsed < INTEGRATION_32_BUDGET_S, (
        f"Algorithm 1 took {elapsed:.2f}s on a 32x32 grid "
        f"(budget {INTEGRATION_32_BUDGET_S}s) — per-block scan regression?"
    )


@pytest.mark.perf_smoke
def test_cache_server_round_trip_within_budget(tmp_path):
    """50 artifacts through a live serve-cache: put, cold get, tiered get."""
    payloads = {
        f"key{i:03d}": {"samples": [i / 7.0, i / 11.0], "seed": i}
        for i in range(50)
    }
    with CacheServer(DirBackend(str(tmp_path / "served"))) as server:
        client = RemoteHTTPBackend(server.url)

        t0 = time.perf_counter()
        for key, payload in payloads.items():
            client.put_text("fidelity", key, json.dumps(payload))
        for key, payload in payloads.items():  # cold reads over HTTP
            assert json.loads(client.get_text("fidelity", key)) == payload
        tiered = TieredStore(f"dir:{tmp_path / 'local'}", server.url)
        for key, payload in payloads.items():  # read-through + write-back
            assert tiered.get("fidelity", key) == payload
        elapsed = time.perf_counter() - t0

    assert elapsed < CACHE_SERVER_BUDGET_S, (
        f"150 cache-server round trips took {elapsed:.2f}s "
        f"(budget {CACHE_SERVER_BUDGET_S}s) — protocol overhead regression?"
    )


@pytest.mark.perf_smoke
def test_coordinator_drain_within_budget():
    """Paper-protocol DAGs, one lease and one complete per job.

    One paper sweep plans 156 jobs: 72 layout jobs and 84 transpile and
    fidelity jobs.  Each of 28 mapping-seed bases adds its own 84 on top
    of the shared layout jobs (72 + 84 x 28 = 2,424), so the drain stays
    above the 2,382 jobs the sweep planned when every mapping seed was a
    job; at 156 a quadratic lease would hide.
    """
    graph = JobGraph()
    for base_seed in range(11, 39):
        spec = SweepSpec(
            PAPER_TOPOLOGIES, PAPER_BENCHMARKS, PAPER_ENGINE_ORDER,
            num_seeds=50, base_seed=base_seed, detailed=True,
        )
        for job in plan_sweep(spec).graph.ordered():
            graph.add(job)
    rows = serialize_graph(graph)
    assert len(rows) >= 2382
    coordinator = FleetCoordinator()
    coordinator.enqueue(rows)

    t0 = time.perf_counter()
    while True:
        jobs = coordinator.lease("w", max_jobs=1)["jobs"]
        if not jobs:
            break
        coordinator.complete("w", jobs[0]["key"], "computed")
    elapsed = time.perf_counter() - t0

    assert coordinator.status()["counts"]["done"] == len(rows)
    assert elapsed < COORDINATOR_DRAIN_BUDGET_S, (
        f"draining {len(rows)} jobs took {elapsed:.2f}s "
        f"(budget {COORDINATOR_DRAIN_BUDGET_S}s) — does lease or "
        "complete walk every job again?"
    )


@pytest.mark.perf_smoke
def test_paper_protocol_kernels_within_budget(monkeypatch):
    """Abacus, Tetris, transpilation, the layout build and the occupancy
    rebuild, as a cold paper sweep runs them; GP, the qubit LP,
    Algorithm 1 and DP run outside the timer."""
    legalizer_s = {"abacus_legalize": [], "tetris_legalize": []}

    def timed(name):
        legalize = getattr(engines, name)

        def run(blocks, bins):
            t0 = time.perf_counter()
            placed = legalize(blocks, bins)
            legalizer_s[name].append(time.perf_counter() - t0)
            return placed

        return run

    for name in legalizer_s:
        monkeypatch.setattr(engines, name, timed(name))
    layouts = []  # (flow, snapshot) of every layout an analyze or dp job rebuilds
    for name in PAPER_TOPOLOGIES:
        flow = QGDPFlow(name)
        flow.place()
        snapshot = flow.netlist.snapshot()
        for engine in PAPER_ENGINE_ORDER:
            flow.restore(snapshot)
            flow.legalize(engine)
            assert check_legality(flow.netlist, flow.grid) == []
            layouts.append((flow, flow.netlist.snapshot()))
            if engine == "qgdp":
                flow.detail()
                layouts.append((flow, flow.netlist.snapshot()))
    rebuild_s = 0.0
    for flow, positions in layouts:
        flow.restore(positions)
        t0 = time.perf_counter()
        BinGrid.of_layout(flow.netlist, flow.grid)
        rebuild_s += time.perf_counter() - t0

    spec = SweepSpec(
        PAPER_TOPOLOGIES, PAPER_BENCHMARKS, PAPER_ENGINE_ORDER,
        num_seeds=50, detailed=True,
    )
    batches = [
        job.params for job in plan_sweep(spec).graph.ordered()
        if job.kind == "transpile"
    ]
    t0 = time.perf_counter()
    programs = sum(len(run_transpile_job(params, [])["stats"]) for params in batches)
    transpile_s = time.perf_counter() - t0

    cfg = QGDPConfig()
    t0 = time.perf_counter()
    for name in PAPER_TOPOLOGIES:
        for _ in range(12):
            build_layout(get_topology(name), cfg)
    build_s = time.perf_counter() - t0

    abacus_s = sum(legalizer_s["abacus_legalize"])
    tetris_s = sum(legalizer_s["tetris_legalize"])
    assert [len(calls) for calls in legalizer_s.values()] == [12, 12]
    assert len(layouts) == 36
    assert (len(batches), programs) == (42, 2100)
    elapsed = abacus_s + tetris_s + transpile_s + build_s + rebuild_s
    assert elapsed < PAPER_KERNELS_BUDGET_S, (
        f"12 Abacus calls ({abacus_s:.2f}s), 12 Tetris calls ({tetris_s:.2f}s), "
        f"42 transpile batches ({transpile_s:.2f}s), 72 builds ({build_s:.2f}s) "
        f"and 36 occupancy rebuilds ({rebuild_s:.2f}s) took {elapsed:.2f}s "
        f"(budget {PAPER_KERNELS_BUDGET_S}s) — Abacus trial, Tetris probe, "
        "routing, frequency-plan or rebuild regression?"
    )


class _CountingBackend(DirBackend):
    """A directory backend that counts text reads and existence checks."""

    def __init__(self, root: str) -> None:
        super().__init__(root)
        self.reads = 0
        self.checks = 0

    def get_text(self, kind: str, key: str):
        self.reads += 1
        return super().get_text(kind, key)

    def has(self, kind: str, key: str) -> bool:
        self.checks += 1
        return super().has(kind, key)


class _CountingStore(ArtifactStore):
    """A directory store that counts the payloads a run reads."""

    def __init__(self, root: str) -> None:
        super().__init__(backend=_CountingBackend(root))
        self.gets = 0

    def get(self, kind: str, key: str):
        self.gets += 1
        return super().get(kind, key)


@pytest.mark.perf_smoke
def test_paper_protocol_warm_resume_within_budget(tmp_path):
    """A resumed paper sweep reads and decodes only its 42 fidelity
    payloads, checks that the other 114 artifacts exist, and plans its
    156 job keys without encoding a shared params document twice."""
    spec = SweepSpec(
        PAPER_TOPOLOGIES, PAPER_BENCHMARKS, PAPER_ENGINE_ORDER,
        num_seeds=50, detailed=True,
    )
    root = str(tmp_path / "cache")
    cold = run_sweep(spec, store=ArtifactStore(root))
    store = _CountingStore(root)

    t0 = time.perf_counter()
    warm = run_sweep(spec, store=store, resume=True)
    elapsed = time.perf_counter() - t0

    plan_s = []
    for _ in range(5):
        t0 = time.perf_counter()
        plan_sweep(spec)
        plan_s.append(time.perf_counter() - t0)

    assert (warm.stats.total, warm.stats.computed) == (156, 0)
    assert warm.stats.by_kind["fidelity"]["cached"] == 42
    assert store.gets == 42
    assert (store.backend.reads, store.backend.checks) == (42, 114)
    assert warm.rows == cold.rows
    assert elapsed < WARM_RESUME_BUDGET_S, (
        f"resuming the paper protocol took {elapsed:.2f}s "
        f"(budget {WARM_RESUME_BUDGET_S}s) — does the resume decode "
        "payloads the rows never read?"
    )
    assert min(plan_s) < PAPER_PLAN_BUDGET_S, (
        f"planning the paper protocol took {min(plan_s) * 1e3:.1f} ms "
        f"(best of 5; budget {PAPER_PLAN_BUDGET_S * 1e3:.0f} ms) — does "
        "every job key encode the shared config again?"
    )
