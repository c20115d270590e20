"""Shared fixtures.

Expensive artifacts (built layouts, GP solutions, legalized layouts) are
session-scoped and computed once; tests that mutate positions must
snapshot/restore or build their own copies.
"""

from __future__ import annotations

import pytest

from repro.core.config import QGDPConfig
from repro.legalization.engines import get_engine, run_legalization
from repro.placement.builder import build_layout
from repro.placement.global_placer import GlobalPlacer
from repro.topologies.registry import get_topology


@pytest.fixture(scope="session")
def config():
    """The default flow configuration."""
    return QGDPConfig()


@pytest.fixture(scope="session")
def fast_config():
    """A cheaper configuration for tests that rebuild layouts."""
    return QGDPConfig(gp_iterations=60)


@pytest.fixture(scope="session")
def falcon():
    return get_topology("falcon")


@pytest.fixture(scope="session")
def grid5():
    return get_topology("grid")


@pytest.fixture(scope="session")
def falcon_gp(fast_config, falcon):
    """Falcon layout after global placement: (netlist, grid, gp_snapshot)."""
    netlist, grid = build_layout(falcon, fast_config)
    GlobalPlacer(fast_config).run(netlist, grid)
    return (netlist, grid, netlist.snapshot())


@pytest.fixture()
def falcon_legalized(fast_config, falcon_gp):
    """Falcon layout legalized with qGDP-LG (fresh per test)."""
    netlist, grid, gp_positions = falcon_gp
    netlist.restore(gp_positions)
    outcome = run_legalization(netlist, grid, get_engine("qgdp"), fast_config)
    return (netlist, grid, outcome)
