"""ASAP scheduling of a routed qubit stream.

A gate's start is not kept, so these tests pin it through the makespan
and each qubit's busy and idle time: a qubit with no idle time ran its
gates back to back from 0, and a makespan equal to one gate's duration
means every gate started at 0.
"""

import pytest

from repro.compiler import schedule


def test_empty_schedule():
    s = schedule([])
    assert s.duration_ns == 0.0
    assert s.busy_ns == {}
    assert s.gates_1q == {} and s.gates_2q == {} and s.active_edges == set()


def test_serial_gates_on_one_qubit():
    s = schedule([(0,), (0,)])
    # Starts at 0 and 35: back to back, so qubit 0 is never idle.
    assert s.duration_ns == pytest.approx(70.0)
    assert s.busy_ns == {0: pytest.approx(70.0)}
    assert s.idle_ns(0) == 0.0
    assert s.gates_1q == {0: 2}


def test_parallel_gates_overlap():
    s = schedule([(0,), (1,)])
    # Both start at 0: the makespan is one gate long.
    assert s.duration_ns == pytest.approx(35.0)
    assert s.busy_ns == {0: pytest.approx(35.0), 1: pytest.approx(35.0)}
    assert s.idle_ns(0) == 0.0 and s.idle_ns(1) == 0.0


def test_two_qubit_gate_blocks_both():
    s = schedule([(0, 1), (1,)])
    # The x starts at 300, when the cx frees qubit 1: qubit 1 is never
    # idle, and qubit 0 idles for the x alone.
    assert s.duration_ns == pytest.approx(335.0)
    assert s.busy_ns == {0: pytest.approx(300.0), 1: pytest.approx(335.0)}
    assert s.idle_ns(1) == 0.0
    assert s.idle_ns(0) == pytest.approx(35.0)
    assert s.gates_2q == {0: 1, 1: 1} and s.gates_1q == {1: 1}
    assert s.active_edges == {(0, 1)}


def test_idle_time_computed():
    s = schedule([(0, 1), (2,)])
    assert s.idle_ns(2) == pytest.approx(300.0 - 35.0)
    assert s.idle_ns(0) == pytest.approx(0.0)


def test_dependency_chain_depth():
    s = schedule([(0, 1), (1, 2), (2, 3)])
    # Each cx waits for the previous one: starts 0, 300, 600.
    assert s.duration_ns == pytest.approx(900.0)
    assert s.idle_ns(0) == pytest.approx(600.0)
    assert s.idle_ns(1) == pytest.approx(300.0)
    assert s.idle_ns(2) == pytest.approx(300.0)
    assert s.idle_ns(3) == pytest.approx(600.0)
    assert s.active_edges == {(0, 1), (1, 2), (2, 3)}


def test_tallies_in_first_touch_order():
    s = schedule([(3,), (2, 1), (1, 0), (0,)])
    assert list(s.busy_ns) == [3, 2, 1, 0]
    assert list(s.gates_1q) == [3, 0]
    assert list(s.gates_2q) == [2, 1, 0]
    assert s.active_edges == {(1, 2), (0, 1)}


def test_stream_consumed_once():
    stream = iter([(0,), (0, 1)])
    s = schedule(stream)
    assert next(stream, None) is None
    assert s.duration_ns == pytest.approx(335.0)
