"""Ablation — array-backed free-site query vs a Python scan (Section III-D, [28]).

The integration-aware legalizer falls back to the nearest-free-site
query when a block has no free neighbour next to its cluster.  The index
answers it with one vectorized ``argmin`` over the free sites of the
flat ``kind_flat`` occupancy array; the naive alternative loops over
every free site in Python.  This bench times both on an Eagle-sized
occupancy.
"""

from __future__ import annotations

import time

import numpy as np

from repro.geometry import SiteGrid
from repro.legalization import BinGrid


def _populated_bins(cols=80, rows=70, fill=0.55, seed=9):
    bins = BinGrid(SiteGrid(cols, rows))
    rng = np.random.default_rng(seed)
    sites = [(c, r) for c in range(cols) for r in range(rows)]
    rng.shuffle(sites)
    for col, row in sites[: int(fill * len(sites))]:
        bins.occupy(col, row, ("b", (0, 1), 0))
    return bins


def _naive_nearest(bins, col, row):
    best, best_d2 = None, None
    for c, r in bins.free_sites():
        d2 = (c - col) ** 2 + (r - row) ** 2
        if best_d2 is None or d2 < best_d2 or (d2 == best_d2 and (r, c) < (best[1], best[0])):
            best, best_d2 = (c, r), d2
    return best


def test_bin_index_matches_naive_and_is_faster(benchmark):
    bins = _populated_bins()
    rng = np.random.default_rng(4)
    queries = [
        (int(rng.integers(80)), int(rng.integers(70))) for _ in range(200)
    ]

    # Correctness: identical answers on every query.
    for col, row in queries[:40]:
        assert bins.nearest_free(col, row) == _naive_nearest(bins, col, row)

    def indexed_pass():
        return [bins.nearest_free(c, r) for c, r in queries]

    t0 = time.perf_counter()
    for col, row in queries:
        _naive_nearest(bins, col, row)
    naive_s = time.perf_counter() - t0

    benchmark(indexed_pass)
    t0 = time.perf_counter()
    indexed_pass()
    indexed_s = time.perf_counter() - t0

    print()
    print("== bin-aided index ablation (200 queries, 80x70 grid, 55% full) ==")
    print(f"  naive scan : {naive_s * 1e3:8.1f} ms")
    print(f"  bin index  : {indexed_s * 1e3:8.1f} ms")
    assert indexed_s < naive_s
