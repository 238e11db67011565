"""Host-speed probes: correct timings for the machine's varying speed.

On a shared machine the vCPU can run code at about half speed for
stretches of seconds to minutes, when other tenants load the host.  A wall
time alone then measures the host as much as the program.  Each timed
operation is therefore bracketed by two runs of a fixed piece of work, the
probe, on the same vCPU, and its time is scaled by reference_s / (mean probe
time): the time the operation would take on a host where the probe takes
reference_s, its time on an uncontended vCPU of the machine the benchmark
was defined on (2-vCPU Intel Xeon, Python 3.11).

A busy host does not slow every kind of work alike, so each workload uses
a probe of the kind of work it measures: the pure-Python loop here for the
CLI processes, and the NumPy probes in measure.py for the library workloads.

This module imports nothing heavy, so that the demo-session launcher stays
small.
"""

import os
import time


class Probe:
    """A fixed piece of work and its time on an uncontended vCPU."""

    def __init__(self, work, reference_s: float) -> None:
        self.work = work
        self.reference_s = reference_s

    def tick(self) -> float:
        """Seconds for the work."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def timed(self, fn):
        """Run fn between two ticks; returns (result, wall seconds, mean tick seconds)."""
        before = self.tick()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        return result, seconds, (before + self.tick()) / 2

    def scaled(self, seconds: float, tick_s: float) -> float:
        """Wall seconds converted to the reference host speed."""
        return seconds * self.reference_s / tick_s


def python_loop() -> int:
    total = 0
    for i in range(10_000):
        total += i * i
    return total


PYTHON = Probe(python_loop, 0.00063)  # interpreter-bound work: start-up, imports, text parsing


def pin_to_one_cpu() -> None:
    """Keep this process (and the processes it starts) on one vCPU, so that the
    ticks and the operation between them run on the same one."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
