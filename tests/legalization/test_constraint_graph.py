"""H/V constraint graph construction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from test_macro_lp_parity import arc_lists


def _graphs(positions, sizes=None, spacing=0.0):
    indices = sorted(positions)
    sizes = sizes or {i: (3.0, 3.0) for i in indices}
    return arc_lists(indices, positions, sizes, spacing)


def test_horizontal_pair_gets_h_arc():
    h, v = _graphs({0: (0.0, 0.0), 1: (10.0, 0.1)})
    assert len(h) == 1 and len(v) == 0
    assert (h[0].lo, h[0].hi) == (0, 1)


def test_vertical_pair_gets_v_arc():
    h, v = _graphs({0: (0.0, 0.0), 1: (0.1, 10.0)})
    assert len(v) == 1 and len(h) == 0
    assert (v[0].lo, v[0].hi) == (0, 1)


def test_separation_includes_spacing():
    h, _v = _graphs({0: (0.0, 0.0), 1: (10.0, 0.0)}, spacing=1.5)
    assert h[0].separation == 3.0 + 1.5


def test_arc_orientation_follows_coordinates():
    h, _v = _graphs({0: (10.0, 0.0), 1: (0.0, 0.1)})
    assert (h[0].lo, h[0].hi) == (1, 0)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 15),
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        min_size=2,
        max_size=12,
    )
)
def test_every_pair_in_exactly_one_graph(positions):
    indices = sorted(positions)
    h, v = _graphs(positions)
    pairs = {frozenset((a.lo, a.hi)) for a in h} | {
        frozenset((a.lo, a.hi)) for a in v
    }
    n = len(indices)
    assert len(h) + len(v) == n * (n - 1) // 2
    assert len(pairs) == n * (n - 1) // 2
