"""Host-speed probe: rescales measured times to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within a minute as other tenants come and go, which moves
every wall time the program takes.  The probe measures that drift while
an interval is timed.  A probe process, pinned to the same CPU as the
benchmark, wakes every ``INTERVAL_S`` seconds and runs a fixed reference
kernel; the CPU time the kernel takes tracks how fast the host is running
that CPU right now.  The kernel is independent of the program under test:
a change to the program never changes the kernel, only the interval timed
around it.

For a timed interval, :meth:`HostProbe.window` reports ``wall`` and
``scaled = wall * REF_KERNEL_S / mean(kernel times in it)``: the seconds
the interval would have taken with the kernel running at its reference
speed.  An interval shorter than the period, which holds no sample, is
scaled by the mean of the latest samples instead.

The kernel walks a shuffled list of tuples and a dict, built once from a
fixed seed, at random indices: interpreter-bound work whose working set
spills out of the private caches, like the program's own.

The probe runs in its own process, not in a thread or signal handler of
the benchmark, so that it allocates nothing in the measured process while
an op runs: the program's outputs can depend on where its objects are
allocated (the compiler memoizes shortest paths by ``id(graph)``).  The
two processes share the samples through a memory-mapped file: a count,
then ``(end, kernel seconds)`` pairs stamped with the system-wide
``perf_counter`` clock.

Run as a script, this module is the probe process::

    python3 perfbench/probe.py <samples file> <cpu>
"""

from __future__ import annotations

import mmap
import os
import random
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

#: Sampling period; the kernel takes about 2 % of it.
INTERVAL_S = 0.05
#: Kernel CPU time that defines the reference speed: about what it takes
#: on an idle 2-vCPU Xeon VM.
REF_KERNEL_S = 1.0e-3
#: Samples used to scale an interval that holds none of its own.
RECENT = 16
#: Room for one sample per period over 25 minutes; later ones are dropped.
CAPACITY = 30_000
#: Seconds to wait for the probe's first sample.
START_TIMEOUT_S = 30.0

_HEADER = struct.Struct("<q")
_PAIR = struct.Struct("<dd")
_SIZE = 150_000
_STEPS = 1_200


class Kernel:
    """The reference work: fixed, whatever the benchmark's seed."""

    def __init__(self) -> None:
        rng = random.Random(0)
        items = [(i, float(i), str(i)) for i in range(_SIZE)]
        rng.shuffle(items)
        self.items = items
        self.table = {i: [i] for i in range(_SIZE)}
        self.order = [rng.randrange(_SIZE) for _ in range(_STEPS)]

    def __call__(self) -> float:
        items, table, total = self.items, self.table, 0.0
        for i in self.order:
            total += items[i][1]
            total += table[i][0]
        return total


def probe_main(path: str, cpu: int) -> None:
    """The probe process: sample the kernel until stopped or orphaned."""
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    kernel = Kernel()
    with open(path, "r+b") as handle:
        shared = mmap.mmap(handle.fileno(), 0)
    count = 0
    while count < CAPACITY and os.getppid() == parent:
        t0 = time.thread_time()
        kernel()
        spent = time.thread_time() - t0
        _PAIR.pack_into(shared, _HEADER.size + count * _PAIR.size, time.perf_counter(), spent)
        count += 1
        _HEADER.pack_into(shared, 0, count)
        time.sleep(INTERVAL_S)


class Window:
    """One timed interval; ``wall`` and ``scaled`` are set when it ends."""

    def __init__(self, probe: "HostProbe") -> None:
        self.probe = probe
        self.wall = self.scaled = None

    def __enter__(self) -> "Window":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.wall = end - self.start
        self.scaled = self.wall * REF_KERNEL_S / self.probe.kernel_mean(self.start, end)


class HostProbe:
    """Starts, reads and stops the probe process.

    :meth:`start` pins the calling thread -- call it before any other
    thread starts, so that they inherit the pin -- and the probe process
    to the last CPU this process may run on.
    """

    def __init__(self, samples_path: Path) -> None:
        self.path = samples_path
        self.process = None
        self.shared = None

    def start(self) -> None:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.path.write_bytes(bytes(_HEADER.size + CAPACITY * _PAIR.size))
        with open(self.path, "r+b") as handle:
            self.shared = mmap.mmap(handle.fileno(), 0)
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.path), str(cpu)]
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.count() == 0:
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the host-speed probe did not start")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process = None
        if self.shared is not None:
            self.shared.close()
            self.shared = None

    def count(self) -> int:
        return _HEADER.unpack_from(self.shared, 0)[0]

    def samples(self) -> list:
        """``(end, kernel seconds)`` pairs, oldest first."""
        return [
            _PAIR.unpack_from(self.shared, _HEADER.size + k * _PAIR.size)
            for k in range(self.count())
        ]

    def kernel_mean(self, start: float, end: float) -> float:
        """Mean kernel time of the samples that ended in ``[start, end]``."""
        samples = self.samples()
        inside = [spent for stamp, spent in samples if start <= stamp <= end]
        return statistics.fmean(inside or [spent for _, spent in samples[-RECENT:]])

    def window(self) -> Window:
        return Window(self)

    def speed(self) -> float:
        """Host speed over the whole run, relative to the reference host."""
        return REF_KERNEL_S / statistics.fmean(spent for _, spent in self.samples())


if __name__ == "__main__":
    probe_main(sys.argv[1], int(sys.argv[2]))
