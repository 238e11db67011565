"""Span tracing of `cbrn` from the outside, for the per-module metrics.

`Tracer.install` replaces the public functions and methods named in
`TARGETS` with timing wrappers, in every `cbrn` module that holds a
reference to them, and `uninstall` puts the originals back.  A span records
(name, start, end, parent, operation id); spans stay in memory until
`write` saves them as JSON lines.  A target the program no longer has is
listed in `absent` and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute path) for each public entry point that is timed.
TARGETS = (
    ("galois.rs_encode", "cbrn.galois", "rs_encode"),
    ("qr.encode_payload", "cbrn.qr", "encode_payload"),
    ("qr.encode_label", "cbrn.qr", "encode_label"),
    ("qr.penalty", "cbrn.qr", "penalty"),
    ("qr.render", "cbrn.qr", "render"),
    ("patterns.normalize", "cbrn.patterns", "normalize"),
    ("patterns.to_pattern", "cbrn.patterns", "to_pattern"),
    ("patterns.load_pbm", "cbrn.patterns", "load_pbm"),
    ("patterns.save_pbm", "cbrn.patterns", "save_pbm"),
    ("memory.store", "cbrn.memory", "MemorySystem.store"),
    ("memory.learn_cross_weights", "cbrn.memory", "MemorySystem.learn_cross_weights"),
    ("memory.cue_response", "cbrn.memory", "MemorySystem.cue_response"),
    ("memory.cross_response", "cbrn.memory", "MemorySystem.cross_response"),
    ("memory.recall_forward", "cbrn.memory", "MemorySystem.recall_forward"),
    ("memory.associate", "cbrn.memory", "MemorySystem.associate"),
    ("store.dumps", "cbrn.store", "dumps"),
    ("store.loads", "cbrn.store", "loads"),
    ("cli.main", "cbrn.cli", "main"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self._stack: list[int] = []
        self.op = -1
        self.active = True  # cleared while the benchmark checks outputs between operations
        self.absent: list[str] = []
        self.loaded = None  # last system returned by store.loads, for size metrics
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = name
            if name == "cli.main" and args and args[0]:
                span_name = f"cli.main.{args[0][0]}"
            index = len(spans)
            spans.append([span_name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if name == "store.loads":
                self.loaded = result
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        cbrn_modules = [m for key, m in sys.modules.items() if key == "cbrn" or key.startswith("cbrn.")]
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            self._set(owner, attr, original, wrapper)
            if not parents:  # functions also live under other names in other modules
                for module in cbrn_modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, original, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                out.write("\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds, self seconds (minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_time[index]
        return out


# Per-layer metrics: (metric name, unit, span name, "total" or "self", scale per second).
TIMED = (
    ("galois.rs_encode_us", "us", "galois.rs_encode", "total", 1e6),
    ("qr.encode_payload_us", "us", "qr.encode_payload", "total", 1e6),
    ("qr.encode_label_ms", "ms", "qr.encode_label", "total", 1e3),
    ("qr.penalty_us", "us", "qr.penalty", "total", 1e6),
    ("qr.placement_us", "us", "qr.encode_label", "self", 1e6),
    ("qr.render_us", "us", "qr.render", "total", 1e6),
    ("patterns.normalize_us", "us", "patterns.normalize", "total", 1e6),
    ("patterns.to_pattern_us", "us", "patterns.to_pattern", "total", 1e6),
    ("patterns.load_pbm_ms", "ms", "patterns.load_pbm", "total", 1e3),
    ("patterns.save_pbm_ms", "ms", "patterns.save_pbm", "total", 1e3),
    ("memory.store_us", "us", "memory.store", "total", 1e6),
    ("memory.learn_cross_weights_us", "us", "memory.learn_cross_weights", "total", 1e6),
    ("memory.cue_response_us", "us", "memory.cue_response", "total", 1e6),
    ("memory.cross_response_us", "us", "memory.cross_response", "total", 1e6),
    ("memory.recall_forward_us", "us", "memory.recall_forward", "total", 1e6),
    ("memory.associate_self_us", "us", "memory.associate", "self", 1e6),
    ("store.dumps_ms", "ms", "store.dumps", "total", 1e3),
    ("store.loads_ms", "ms", "store.loads", "total", 1e3),
) + tuple(
    (f"cli.{cmd}_self_ms", "ms", f"cli.main.{cmd}", "self", 1e3)
    for cmd in ("encode", "train", "pair", "recall", "associate", "report")
)

OTHER = (
    ("qr.penalty_calls_per_label", "count"),
    ("memory.cue_bytes_per_query", "bytes"),
    ("memory.weight_bytes_per_neuron", "bytes"),
    ("memory.cue_unique_fire_ratio", "ratio"),
    ("store.model_bytes", "bytes"),
    ("cli.startup_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.tick_ms", "ms"),
)

PER_LAYER = tuple((name, unit) for name, unit, *_ in TIMED) + OTHER


def timed_metrics(tracer: Tracer) -> dict[str, float]:
    """Mean time per call of each timed span; 0 where the workload made no call."""
    totals = tracer.totals()
    out = {}
    for metric, _, span, kind, scale in TIMED:
        entry = totals.get(span)
        out[metric] = entry[kind] / entry["calls"] * scale if entry else 0.0
    labels = totals.get("qr.encode_label")
    penalties = totals.get("qr.penalty")
    out["qr.penalty_calls_per_label"] = penalties["calls"] / labels["calls"] if labels and penalties else 0.0
    return out


def absent_metrics(tracer: Tracer) -> list[str]:
    spans = set(tracer.absent)
    return [metric for metric, _, span, _, _ in TIMED if span in spans or span.rsplit(".", 1)[0] in spans]
