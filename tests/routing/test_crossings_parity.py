"""Parity: the batched bridged-block walk equals the scalar walk.

The reference below transcribes the original per-sample Python loop; the
one-pass walk in ``routing.crossings`` must report the same foreign block
set for every trace it walks together, including traces with no
segments, segments leaving the grid and own keys the occupancy never saw.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import SiteGrid
from repro.legalization import BinGrid
from repro.routing.crossings import _bridged_blocks

COLS, ROWS = 9, 8


def reference_bridged(trace, own_key, bins):
    grid = bins.grid
    lb = grid.lb
    bridged = set()
    for (x1, y1), (x2, y2) in trace:
        length = ((x2 - x1) ** 2 + (y2 - y1) ** 2) ** 0.5
        steps = max(1, int(length / (0.45 * lb)))
        for k in range(steps + 1):
            t = k / steps
            x = x1 + (x2 - x1) * t
            y = y1 + (y2 - y1) * t
            col = int(x // lb)
            row = int(y // lb)
            if not grid.in_grid(col, row):
                continue
            owner = bins.occupant(col, row)
            if owner is not None and owner[0] == "b" and owner[1] != own_key:
                bridged.add(owner)
    return bridged


coord = st.floats(-2.0, 11.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)
trace_st = st.lists(st.tuples(point, point), max_size=5)
site_st = st.tuples(st.integers(0, COLS - 1), st.integers(0, ROWS - 1))

#: Block owners; trace keys (k, k + 1) for k >= 2 own no block, so their
#: ``res_key_index`` is -1.
OWNER_KEYS = [(0, 1), (1, 2), (7, 9)]


@settings(max_examples=60, deadline=None)
@given(
    traces=st.lists(trace_st, min_size=3, max_size=5),
    blocks=st.dictionaries(site_st, st.sampled_from(OWNER_KEYS), max_size=30),
    qubits=st.sets(site_st, max_size=8),
)
def test_bridged_blocks_match_scalar_walk(traces, blocks, qubits):
    bins = BinGrid(SiteGrid(COLS, ROWS))
    for i, site in enumerate(sorted(qubits)):
        bins.occupy(site[0], site[1], ("q", i))
    for i, (site, key) in enumerate(sorted(blocks.items())):
        if site not in qubits:
            bins.occupy(site[0], site[1], ("b", key, i))
    keyed = {(k, k + 1): trace for k, trace in enumerate(traces)}
    keyed[(8, 9)] = []  # a trace with no segments
    keys = sorted(keyed)
    assert bins.res_key_index((2, 3)) == -1

    got = _bridged_blocks(keyed, keys, bins)
    assert list(got) == keys
    for key in keys:
        assert got[key] == sorted(reference_bridged(keyed[key], key, bins))
