"""Perf smoke guards: the qGDP hot paths must stay interactive.

One small end-to-end flow (place → legalize → detailed-place on a 5×5
qubit grid), analysis-kernel guards (legalize + MST trace build +
crossing count on 12×12 and 16×16 grids), a 24×24 legalize-only guard
(576 qubits — the BENCH_scaling ceiling), and a cache-server
round-trip guard (50 artifacts pushed and read back through a live
``serve-cache``), each with a *generous* wall-clock budget — an order
of magnitude above the implementations' typical time, but far below a
genuine regression, so only a real hot-path or protocol-overhead
regression trips them.  Part of the tier-1 run; select just these
guards with ``pytest -m perf_smoke``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.config import QGDPConfig
from repro.orchestration import (
    CacheServer,
    DirBackend,
    RemoteHTTPBackend,
    TieredStore,
)
from repro.detailed import DetailedPlacer
from repro.legalization import get_engine, run_legalization
from repro.metrics import check_legality, integration_ratio
from repro.placement import GlobalPlacer, build_layout
from repro.routing.crossings import build_traces, count_crossings
from repro.topologies import grid_topology

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

#: Budget for 50 artifacts pushed and read back through a live cache
#: server over loopback HTTP, seconds.  Typical: well under 0.5 s; the
#: ceiling trips only on a per-request overhead regression (connection
#: churn, payload re-encoding, server-side scans per artifact).
CACHE_SERVER_BUDGET_S = 15.0


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
