"""Evaluation harness sweeps."""

import pytest

from repro.core.config import QGDPConfig
from repro.evaluation import (
    EvaluationConfig,
    evaluate_engines,
    evaluate_fidelity,
    format_fig8,
    format_fig9,
    format_table2,
    format_table3,
)


@pytest.fixture(scope="module")
def small_eval():
    return EvaluationConfig(
        num_seeds=3, config=QGDPConfig(gp_iterations=60)
    )


@pytest.fixture(scope="module")
def fidelity_cells(small_eval):
    return evaluate_fidelity(
        ["falcon"], ["bv-4", "qaoa-4"], ["qgdp", "tetris"], small_eval
    )


@pytest.fixture(scope="module")
def engine_evals(small_eval):
    return {
        "falcon": evaluate_engines("falcon", ["qgdp", "tetris"], small_eval)
    }


def test_all_cells_present(fidelity_cells):
    for bench in ("bv-4", "qaoa-4"):
        for engine in ("qgdp", "tetris"):
            assert ("falcon", bench, engine) in fidelity_cells


def test_cell_statistics_consistent(fidelity_cells):
    for cell in fidelity_cells.values():
        assert len(cell.samples) == 3
        assert cell.minimum <= cell.mean <= cell.maximum
        assert 0.0 <= cell.minimum and cell.maximum <= 1.0


def test_qgdp_at_least_matches_tetris(fidelity_cells):
    for bench in ("bv-4", "qaoa-4"):
        qgdp = fidelity_cells[("falcon", bench, "qgdp")].mean
        tetris = fidelity_cells[("falcon", bench, "tetris")].mean
        assert qgdp >= tetris - 1e-9


def test_engine_evaluation_fields(engine_evals):
    ev = engine_evals["falcon"]["qgdp"]
    assert ev.metrics.legality_violations == 0
    assert ev.qubit_time_s > 0
    assert ev.dp_metrics is not None
    assert ev.dp_time_s > 0
    assert engine_evals["falcon"]["tetris"].dp_metrics is None


def test_formatters_produce_tables(fidelity_cells, engine_evals):
    fig8 = format_fig8(
        fidelity_cells, ["falcon"], ["bv-4", "qaoa-4"], ["qgdp", "tetris"]
    )
    assert "falcon" in fig8 and "qGDP-LG" in fig8
    fig9 = format_fig9(engine_evals, ["falcon"], ["qgdp", "tetris"])
    assert "Ph (%)" in fig9 and "Coupler Crosses" in fig9
    t2 = format_table2(engine_evals, ["falcon"], ["qgdp", "tetris"])
    assert "Mean" in t2
    t3 = format_table3(engine_evals, ["falcon"])
    assert "LG Iedge" in t3


def test_oversized_benchmarks_skipped(small_eval):
    cells = evaluate_fidelity(["grid"], ["bv-16"], ["qgdp"], small_eval)
    assert ("grid", "bv-16", "qgdp") in cells  # 16 fits the 25-qubit grid


# -- cached tables path: metrics jobs ----------------------------------------


def test_metrics_job_matches_in_process_computation(small_eval):
    """The metrics artifact must report exactly what a live in-process
    layout_metrics call reports, for both the LG and the DP stage."""
    from repro.detailed.placer import DetailedPlacer
    from repro.legalization.engines import get_engine, run_legalization
    from repro.metrics.report import layout_metrics
    from repro.placement.builder import build_layout
    from repro.placement.global_placer import GlobalPlacer
    from repro.topologies import get_topology

    config = small_eval.config
    netlist, grid = build_layout(get_topology("grid"), config)
    GlobalPlacer(config).run(netlist, grid)
    outcome = run_legalization(netlist, grid, get_engine("qgdp"), config)
    lg_ref = layout_metrics(netlist, outcome.bins, config)
    DetailedPlacer(config).run(netlist, outcome.bins)
    dp_ref = layout_metrics(netlist, outcome.bins, config)

    evaluations = evaluate_engines("grid", ["qgdp"], small_eval)
    assert evaluations["qgdp"].metrics == lg_ref
    assert evaluations["qgdp"].dp_metrics == dp_ref


def test_run_engine_evaluations_warm_cache_is_identical(small_eval, tmp_path):
    from repro.evaluation import run_engine_evaluations

    cache = str(tmp_path / "cache")
    cold = run_engine_evaluations(
        ["grid"], ["qgdp", "tetris"], small_eval, cache_dir=cache
    )
    assert cold.stats.computed > 0 and cold.stats.cached == 0
    warm = run_engine_evaluations(
        ["grid"], ["qgdp", "tetris"], small_eval, cache_dir=cache, resume=True
    )
    assert warm.stats.computed == 0
    assert warm.stats.cached == cold.stats.computed
    # Bit-identical down to the cached wall-clock timings.
    assert warm.evaluations == cold.evaluations
    assert warm.rows == cold.rows
    assert warm.manifest["run_id"] == cold.manifest["run_id"]
    assert warm.manifest["run_id"].endswith("-tables")


def test_engine_evaluations_share_sweep_layout_artifacts(small_eval, tmp_path):
    """A fidelity sweep and a tables run over the same topology share the
    gp/lg artifacts through a common cache directory."""
    from repro.evaluation import run_engine_evaluations, sweep_spec
    from repro.orchestration import run_sweep

    cache = str(tmp_path / "cache")
    spec = sweep_spec(["grid"], ["bv-4"], ["tetris"], small_eval)
    run_sweep(spec, cache_dir=cache)

    tables = run_engine_evaluations(
        ["grid"], ["tetris"], small_eval, cache_dir=cache, resume=True
    )
    by_kind = tables.stats.by_kind
    # gp, lg and the lg layout's analysis all come from the sweep.
    assert by_kind["gp"]["cached"] == 1
    assert by_kind["lg"]["cached"] == 1
    assert by_kind["analyze"]["cached"] == 1
    assert tables.stats.computed == 0
