"""Benchmark of cbrn: three closed-loop workloads, one client, one thread.

    python3 bench/run.py --workload demo-session --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is used from `src`
without being installed.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0`
the metrics are the end-to-end ones; with `--trace 1` the per-module ones
from a traced run, whose spans are written to `.bench_out/`.  See
bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("demo-session", "catalog-train", "query-stream")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def per_layer(result: dict, tracer) -> dict[str, float]:
    import spans

    metrics = spans.timed_metrics(tracer)
    traced, plain, sizes = result["tally"], result["plain"], result["sizes"]
    metrics.update({
        "memory.cue_bytes_per_query": sizes[0] if sizes else 0.0,
        "memory.weight_bytes_per_neuron": sizes[1] if sizes else 0.0,
        "memory.cue_unique_fire_ratio": result["unique_fire"],
        "store.model_bytes": result["model_bytes"],
        "cli.startup_ms": result["startup_ms"],
        "trace.overhead_pct": (traced.mean() / plain.mean() - 1.0) * 100.0 if plain.mean() else 0.0,
        "host.tick_ms": statistics.median(traced.ticks) * 1e3,
    })
    absent = spans.absent_metrics(tracer) + ([] if sizes else ["memory.cue_bytes_per_query",
                                                                 "memory.weight_bytes_per_neuron"])
    print(f"tracing overhead {metrics['trace.overhead_pct']:+.2f}% on mean operation time"
          f" ({plain.mean() * 1e3:.4f} ms untraced, {traced.mean() * 1e3:.4f} ms traced)")
    if absent:
        print("absent (the program no longer has the function): " + ", ".join(absent))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cbrn" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/cbrn package to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"  # one thread: BLAS would otherwise start a worker per core
    for key in [k for k in os.environ if k.startswith("CBRN_")]:
        del os.environ[key]  # the CLI reads options from CBRN_* variables

    import demo
    import hostspeed
    import library
    import spans
    from measure import END_TO_END
    from oracle import CheckFailed

    hostspeed.pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    tracer = spans.Tracer() if args.trace else None
    try:
        if args.workload == "demo-session":
            result = demo.run(ROOT, work, args.seed, args.seconds, tracer)
        elif args.workload == "catalog-train":
            result = library.run_catalog(args.seed, args.seconds, tracer)
        else:
            result = library.run_query(args.seed, args.seconds, tracer)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        failure = exc
    else:
        failure = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failure is not None:
        # counts attached by measure.counted
        print(json.dumps({"correct": False, "attempted": max(failure.attempted, 1), "failed": failure.failed,
                          "metrics": {}}))
        return 1

    tally = result["tally"]
    if tracer is None:
        values, units = result["metrics"], dict(END_TO_END)
    else:
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
        values, units = per_layer(result, tracer), dict(spans.PER_LAYER)
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
