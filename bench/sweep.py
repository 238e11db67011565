"""Reference sweep of neurons per ball: cue_response, cross_response, store, dumps/loads.

    python3 bench/sweep.py

Builds two balls of n seeded random bitmaps each, links neuron i of one to
neuron i of the other, and prints one markdown table row per n in SIZES.
Times are medians over repeated calls.  `dumps`/`loads` run only up to
TEXT_MAX neurons per ball, because the CBRN1 text grows by about 0.3 MB per
neuron.
These figures are a reference for bench/README.md, not a workload.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # one thread, as in bench/run.py

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cbrn import memory, patterns, store  # noqa: E402

SIDE = 116
SIZES = (7, 64, 512, 1024)  # neurons per ball; 1,024 is 420 MiB of weights
TEXT_MAX = 64  # largest n whose model text is dumped and loaded


def median_us(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def row(n: int, seed: int = 0) -> str:
    rng = np.random.default_rng(seed)
    system = memory.MemorySystem(memory.SystemConfig())
    store_times = []
    for ball in ("A", "B"):
        system.add_ball(ball, [f"{ball}{j}" for j in range(n)])
        for j in range(n):
            vector = patterns.normalize(patterns.BinaryPattern(rng.integers(0, 2, (SIDE, SIDE), dtype=np.uint8)))
            start = time.perf_counter()
            system.store(ball, j, vector)
            store_times.append(time.perf_counter() - start)
    for j in range(n):
        system.learn_cross_weights("A", j, "B", j)
    probe = system.recall_forward("A", n // 2)
    cue = median_us(lambda: system.cue_response("A", probe), 200)
    cross = median_us(lambda: system.cross_response("A", n // 2, "B"), 200)
    cells = [f"{n}", f"{2 * n * 2 * SIDE * SIDE * 8 / 2**20:.1f}", f"{statistics.median(store_times) * 1e6:.0f}",
             f"{cue:.0f}", f"{cross:.1f}"]
    if n <= TEXT_MAX:
        text = store.dumps(system)
        dumps_ms = median_us(lambda: store.dumps(system), 3) / 1e3
        loads_ms = median_us(lambda: store.loads(text), 3) / 1e3
        cells += [f"{len(text) / 2**20:.1f}", f"{dumps_ms:.0f}", f"{loads_ms:.0f}"]
    else:
        cells += ["-", "-", "-"]
    return "| " + " | ".join(cells) + " |"


def main() -> None:
    print("| neurons per ball | weights MiB (2 balls) | store µs | cue_response µs | cross_response µs"
          " | model MiB | dumps ms | loads ms |")
    print("|---|---|---|---|---|---|---|---|")
    for n in SIZES:
        print(row(n), flush=True)


if __name__ == "__main__":
    main()
