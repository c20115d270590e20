"""Compare the five legalization engines on one device (mini Fig. 8 / 9).

Legalizes the same global placement with qGDP-LG, Q-Abacus, Q-Tetris,
Abacus and Tetris, then reports layout metrics and the mean program
fidelity over a few NISQ benchmarks — the paper's core comparison at
example scale.

Run:  python examples/compare_legalizers.py [topology]
"""

import sys

from repro import (
    EvaluationConfig,
    PAPER_ENGINE_ORDER,
    QGDPConfig,
    evaluate_engines,
    evaluate_fidelity,
)
from repro.legalization import ENGINES

BENCHMARKS = ["bv-4", "bv-9", "qaoa-4", "qgan-4"]


def main(topology: str = "aspen11") -> None:
    eval_config = EvaluationConfig(num_seeds=10, config=QGDPConfig())

    print(f"== layout metrics on {topology} ==")
    evaluations = evaluate_engines(topology, PAPER_ENGINE_ORDER, eval_config)
    header = f"{'engine':<10}{'Iedge':>9}{'X':>5}{'Ph(%)':>8}{'HQ':>5}{'qviol':>7}{'tq(ms)':>9}{'te(ms)':>9}"
    print(header)
    for engine in PAPER_ENGINE_ORDER:
        ev = evaluations[engine]
        m = ev.metrics
        print(
            f"{ENGINES[engine].display_name:<10}{m.iedge:>9}{m.crossings:>5}"
            f"{m.ph_percent:>8.2f}{m.hq:>5}{m.spacing_violations:>7}"
            f"{ev.qubit_time_s * 1e3:>9.1f}{ev.resonator_time_s * 1e3:>9.1f}"
        )

    print(f"\n== mean fidelity over {BENCHMARKS} ({eval_config.num_seeds} mappings) ==")
    cells = evaluate_fidelity([topology], BENCHMARKS, PAPER_ENGINE_ORDER, eval_config)
    for engine in PAPER_ENGINE_ORDER:
        means = [cells[(topology, b, engine)].mean for b in BENCHMARKS]
        per_bench = "  ".join(
            f"{b}:{cells[(topology, b, engine)].mean:.4f}" for b in BENCHMARKS
        )
        print(
            f"{ENGINES[engine].display_name:<10} mean {sum(means) / len(means):.4f}   {per_bench}"
        )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "aspen11")
