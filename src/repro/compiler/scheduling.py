"""ASAP scheduling of a routed gate stream."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.circuits.gates import GATE_DURATIONS_NS


@dataclass
class Schedule:
    """Timing and gate tallies of a routed (physical) gate stream.

    ``busy_ns`` maps physical qubit → time spent executing gates;
    ``duration_ns`` is the makespan; idle time per qubit is
    ``duration_ns - busy_ns[q]`` for active qubits.  ``gates_1q`` and
    ``gates_2q`` count each qubit's one- and two-qubit gates, and
    ``active_edges`` holds the coupling edges ``(qi, qj)``, ``qi < qj``,
    that two-qubit gates use.  Each is filled in first-touch order.
    """

    duration_ns: float
    busy_ns: dict = field(default_factory=dict)
    gates_1q: dict = field(default_factory=dict)
    gates_2q: dict = field(default_factory=dict)
    active_edges: set = field(default_factory=set)

    def idle_ns(self, qubit: int) -> float:
        """Idle time of an active qubit within the makespan."""
        return self.duration_ns - self.busy_ns.get(qubit, 0.0)


def schedule(stream: Iterable[tuple]) -> Schedule:
    """ASAP schedule: each gate starts when all of its qubits are free.

    ``stream`` yields each gate's physical qubits, ``(q,)`` or
    ``(a, b)``, as :func:`~repro.compiler.routing.route_circuit` does;
    it is consumed once.
    """
    one_ns, two_ns = GATE_DURATIONS_NS[1], GATE_DURATIONS_NS[2]
    ready = {}
    busy = {}
    gates_1q = {}
    gates_2q = {}
    active_edges = set()
    makespan = 0.0
    for qubits in stream:
        if len(qubits) == 1:
            (q,) = qubits
            end = ready.get(q, 0.0) + one_ns
            ready[q] = end
            busy[q] = busy.get(q, 0.0) + one_ns
            gates_1q[q] = gates_1q.get(q, 0) + 1
        else:
            a, b = qubits
            ready_a, ready_b = ready.get(a, 0.0), ready.get(b, 0.0)
            end = (ready_a if ready_a >= ready_b else ready_b) + two_ns
            ready[a] = ready[b] = end
            busy[a] = busy.get(a, 0.0) + two_ns
            busy[b] = busy.get(b, 0.0) + two_ns
            gates_2q[a] = gates_2q.get(a, 0) + 1
            gates_2q[b] = gates_2q.get(b, 0) + 1
            active_edges.add((a, b) if a < b else (b, a))
        if end > makespan:
            makespan = end
    return Schedule(
        duration_ns=makespan,
        busy_ns=busy,
        gates_1q=gates_1q,
        gates_2q=gates_2q,
        active_edges=active_edges,
    )
