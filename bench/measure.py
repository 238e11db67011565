"""Counters and the end-to-end metrics every workload reports."""

from __future__ import annotations

import contextlib
import resource
import statistics
import time

import numpy as np

import hostspeed
from oracle import CheckFailed

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 5
# Times of the NumPy probes below on an uncontended vCPU, where hostspeed.PYTHON
# takes its reference 0.63 ms (see bench/README.md).
NUMPY_SCALAR_REFERENCE_S = 0.00040
MATVEC_REFERENCE_S = 0.00037


class Tally:
    """Operations attempted and failed, their times, and time spent in the program.

    Times are converted to the reference host speed with `probe` (see
    hostspeed.py); the wall times and probe ticks are kept too.
    """

    def __init__(self, probe: hostspeed.Probe) -> None:
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []  # reference-speed seconds, one per timed operation
        self.raw: list[float] = []  # wall seconds of the same operations
        self.ticks: list[float] = []  # host-speed probe seconds around each timed call
        self.busy = 0.0  # reference-speed seconds spent inside program calls
        self.wall_busy = 0.0  # wall seconds of the same calls
        self.round_times: list[float] = []  # busy seconds of each whole round
        self.round_walls: list[float] = []  # wall_busy seconds of each whole round

    def record(self, seconds: float, tick_s: float) -> None:
        """One timed operation."""
        self.add_busy(seconds, tick_s)
        self.latencies.append(self.probe.scaled(seconds, tick_s))
        self.raw.append(seconds)

    def add_busy(self, seconds: float, tick_s: float) -> None:
        """Program time that belongs to a round but to no single operation."""
        self.busy += self.probe.scaled(seconds, tick_s)
        self.wall_busy += seconds
        self.ticks.append(tick_s)

    def mean(self) -> float:
        return self.busy / len(self.latencies) if self.latencies else 0.0


def numpy_scalar_probe() -> hostspeed.Probe:
    """Run lengths along the rows and columns of a fixed 29 x 29 grid, one
    NumPy element at a time: the kind of work of the QR encoder's mask scoring."""
    grid = (np.random.default_rng(0).random((29, 29)) < 0.5).astype(np.uint8)

    def work() -> int:
        same = 0
        for lines in (grid, grid.T):
            for line in lines:
                for k in range(1, len(line)):
                    same += line[k] == line[k - 1]
        return same

    return hostspeed.Probe(work, NUMPY_SCALAR_REFERENCE_S)


def matvec_probe() -> hostspeed.Probe:
    """A fixed 256 x 4096 float64 matrix (8 MiB) times a vector: the kind of
    work of a cue response."""
    rng = np.random.default_rng(0)
    matrix, vector = rng.random((256, 4096)), rng.random(4096)
    return hostspeed.Probe(lambda: matrix @ vector, MATVEC_REFERENCE_S)


@contextlib.contextmanager
def counted(*tallies: "Tally"):
    """On a failed check, attach the operations attempted and failed so far to
    the exception; the operation whose output failed the check counts as failed."""
    try:
        yield
    except CheckFailed as exc:
        exc.attempted = sum(t.attempted for t in tallies)
        exc.failed = sum(t.failed for t in tallies) + 1
        raise


def median_time(fn, repeats: int, probe: hostspeed.Probe) -> tuple[float, object]:
    """Median reference-speed time of `repeats` calls; also returns the last call's result."""
    times, result = [], None
    for _ in range(repeats):
        result = None  # let the previous result go before building the next one
        result, seconds, tick_s = probe.timed(fn)
        times.append(probe.scaled(seconds, tick_s))
    return statistics.median(times), result


def rounds(seconds: float, min_rounds: int):
    """Yield round numbers until `seconds` have passed and `min_rounds` are done."""
    start = time.perf_counter()
    n = 0
    while n < min_rounds or time.perf_counter() - start < seconds:
        yield n
        n += 1


def run_rounds(tally: Tally, seconds: float, round_fn) -> None:
    """Whole rounds for `seconds`, at least one; round_fn gets the round number."""
    for n in rounds(seconds, 1):
        before, wall_before = tally.busy, tally.wall_busy
        round_fn(n)
        tally.round_times.append(tally.busy - before)
        tally.round_walls.append(tally.wall_busy - wall_before)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(tally: Tally, setup_s: float, rss_mb: float) -> dict[str, float]:
    print(f"wall-clock round {statistics.median(tally.round_walls):.4f} s, op_p50"
          f" {statistics.median(tally.raw) * 1e3:.4f} ms; host-speed probe median"
          f" {statistics.median(tally.ticks) * 1e3:.4f} ms against {tally.probe.reference_s * 1e3} ms")
    return {
        "setup_s": setup_s,
        "round_s": statistics.median(tally.round_times),
        "op_p50_ms": statistics.median(tally.latencies) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def memory_sizes(system) -> tuple[float, float] | None:
    """(cue-weight bytes one query reads, mean over balls; weight bytes per neuron).

    Sizes come from the arrays the system holds; None if its layout is not
    the one this helper knows (`balls` mapping ids to objects with `v`).
    """
    try:
        balls = list(system.balls.values())
        cue = statistics.mean(ball.v.nbytes for ball in balls)
        neurons = sum(ball.v.shape[0] for ball in balls)
    except (AttributeError, TypeError):
        return None
    seen: set[int] = set()
    total = 0
    stack = [system]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return cue, total / neurons
