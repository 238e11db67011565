"""catalog-train and query-stream: the library called in one process.

catalog-train stores a seeded catalog of QR-coded labels and pairs it, so
the qr, galois and memory write path do the work.  query-stream asks a
memory of seeded random bitmaps to associate noisy probes, so the memory
read path does the work and qr and store are bypassed.
"""

from __future__ import annotations

import random

import numpy as np

import oracle
from measure import (SETUP_REPEATS, Tally, counted, end_to_end, matvec_probe, median_time, memory_sizes,
                     numpy_scalar_probe, peak_rss_mb, rounds, run_rounds)
from oracle import require

SIDE = 116
DIM = SIDE * SIDE
BALLS = ("A", "B", "C")

# -- catalog-train -------------------------------------------------------------

CATALOG_LABELS = 100  # per ball
CATALOG_SETUP_REPEATS = 101  # parse_catalog and from_catalog take about 2 ms together
ASCII = "abcdefghijklmnopqrstuvwxyz0123456789-_."
WIDE = "éüßøñ中文✓€😀🎲"  # 2-, 3- and 4-byte UTF-8 characters


def make_label(rng: random.Random, size: int) -> str:
    """A label of exactly `size` UTF-8 bytes, about one character in ten multi-byte."""
    chars: list[str] = []
    used = 0
    while used < size:
        ch = rng.choice(WIDE) if rng.random() < 0.1 else rng.choice(ASCII + " ")
        n = len(ch.encode("utf-8"))
        if used + n > size or (ch == " " and (used == 0 or used + 1 == size)):
            ch, n = rng.choice(ASCII), 1
        chars.append(ch)
        used += n
    return "".join(chars)


def catalog_text(seed: int, per_ball: int) -> str:
    """Catalog file text: per_ball distinct labels in each ball, 1 to 53 bytes long."""
    rng = random.Random(seed)
    lines = []
    for ball in BALLS:
        seen: set[str] = set()
        while len(seen) < per_ball:
            label = make_label(rng, rng.randint(1, 53))
            if label not in seen:
                lines.append(f"{ball}:{len(seen)}:{label}")
                seen.add(label)
    return "\n".join(lines) + "\n"


def ring_pairs(rng, n: int) -> list[tuple[str, int, str, int]]:
    """One seeded partner in the next ball for every neuron: A->B, B->C, C->A."""
    out = []
    for a, b in zip(BALLS, BALLS[1:] + BALLS[:1]):
        perm = rng.permutation(n)
        out.extend((a, k, b, int(perm[k])) for k in range(n))
    return out


def check_links(system, pairs) -> None:
    partner = {(a, k, b): l for a, k, b, l in pairs} | {(b, l, a): k for a, k, b, l in pairs}
    for (a, k, b), l in partner.items():
        response = system.cross_response(a, k, b)
        want = np.zeros(len(response.q))
        want[l] = oracle.THETA
        require(np.array_equal(response.q, want), f"cross response {a}:{k} -> {b} is not theta at {l} only")


def check_cues(system, bitmaps: dict[str, list[np.ndarray]]) -> tuple[int, int]:
    """Probe every stored pattern; q must match the oracle. Returns (unique fires, probes)."""
    unique = probes = 0
    for ball, stored in bitmaps.items():
        overlap = oracle.OverlapOracle(stored)
        for j, bits in enumerate(stored):
            response = system.cue_response(ball, oracle.unit_vector(bits))
            oracle.check_q(response.q, overlap.q(bits), f"cue {ball}:{j}")
            oracle.check_fired(response.q, response.fired, f"cue {ball}:{j}")
            unique += len(response.fired) == 1
            probes += 1
    return unique, probes


def run_catalog(seed: int, seconds: float, trace, per_ball: int = CATALOG_LABELS) -> dict:
    from cbrn import memory, patterns, qr
    from cbrn.errors import CbrnError

    text = catalog_text(seed, per_ball)

    def set_up():
        catalog = patterns.parse_catalog(text)
        memory.MemorySystem.from_catalog(catalog, memory.SystemConfig())
        return catalog

    probe = numpy_scalar_probe()
    setup_s, catalog = median_time(set_up, CATALOG_SETUP_REPEATS, probe)
    entries = [(g.name, i, label) for g in catalog for i, label in enumerate(g.labels)]
    pairs = ring_pairs(np.random.default_rng(seed), per_ball)
    verified: list[np.ndarray] = []  # bitmaps of round 0, each read back by the QR reader
    state: dict = {}

    def store_label(system, ball: str, i: int, label: str):
        pattern = qr.render(qr.encode_label(label))
        vector = patterns.normalize(pattern)
        system.store(ball, i, vector)
        return pattern, vector

    def pair_all(system) -> int:
        failed = 0
        for a, k, b, l in pairs:
            try:
                system.learn_cross_weights(a, k, b, l)
            except CbrnError as exc:
                failed += 1
                print(f"pair {a}:{k}={b}:{l} failed: {exc!r}")
        return failed

    def train(tally: Tally, n_round: int) -> None:
        system, seconds, tick_s = probe.timed(lambda: memory.MemorySystem.from_catalog(catalog, memory.SystemConfig()))
        tally.add_busy(seconds, tick_s)
        for n, (ball, i, label) in enumerate(entries):
            tally.attempted += 1
            trace_op(trace, n)
            try:
                (pattern, vector), seconds, tick_s = probe.timed(lambda: store_label(system, ball, i, label))
            except CbrnError as exc:
                tally.failed += 1
                print(f"store {ball}:{i} {label!r} failed: {exc!r}")
                continue
            tally.record(seconds, tick_s)
            trace_op(trace, None)
            if n_round == 0:
                oracle.read_label(pattern.bits, label)
                verified.append(pattern.bits.copy())
            else:
                require(np.array_equal(pattern.bits, verified[n]), f"symbol of {label!r} changed")
            require(np.array_equal(vector, oracle.unit_vector(pattern.bits)), f"vector of {label!r}")
            require(np.array_equal(system.recall_forward(ball, i), vector), f"stored row of {label!r}")
        trace_op(trace, len(entries))
        failed, seconds, tick_s = probe.timed(lambda: pair_all(system))
        tally.add_busy(seconds, tick_s)
        tally.attempted += len(pairs)
        tally.failed += failed
        trace_op(trace, None)
        check_links(system, pairs)
        by_ball = {b: [] for b in BALLS}
        for (ball, _, _), bits in zip(entries, verified):
            by_ball[ball].append(bits)
        state["unique"] = check_cues(system, by_ball)
        state["sizes"] = memory_sizes(system)

    return _phases(train, seconds, trace, probe, setup_s=setup_s, state=state)


# -- query-stream ----------------------------------------------------------------

QUERY_NEURONS = 256  # per ball
FLIPS = DIM // 10  # pixels flipped in each probe


def build_memory(seed: int, n: int):
    """Seeded 50%-density bitmaps stored in three balls, one link per neuron."""
    from cbrn import memory, patterns

    rng = np.random.default_rng(seed)
    bitmaps = {b: [] for b in BALLS}
    system = memory.MemorySystem(memory.SystemConfig())
    for ball in BALLS:
        system.add_ball(ball, [f"{ball}{j}" for j in range(n)])
        for j in range(n):
            bits = rng.integers(0, 2, size=(SIDE, SIDE), dtype=np.uint8)
            bitmaps[ball].append(bits)
            system.store(ball, j, patterns.normalize(patterns.BinaryPattern(bits)))
    pairs = ring_pairs(rng, n)
    for a, k, b, l in pairs:
        system.learn_cross_weights(a, k, b, l)
    return system, bitmaps, pairs


def run_query(seed: int, seconds: float, trace, n: int = QUERY_NEURONS) -> dict:
    from cbrn import patterns
    from cbrn.errors import CbrnError

    probe = matvec_probe()
    setup_s, (system, bitmaps, pairs) = median_time(lambda: build_memory(seed, n), SETUP_REPEATS, probe)
    oracles = {b: oracle.OverlapOracle(bitmaps[b]) for b in BALLS}
    partner = {(a, k): (b, l) for a, k, b, l in pairs}
    state: dict = {}

    def query(src: str, noisy: np.ndarray, dst: str):
        vector = patterns.normalize(patterns.BinaryPattern(noisy))
        result = system.associate(src, vector, dst)
        return result, patterns.to_pattern(result.recalled, SIDE, SIDE)

    def stream(tally: Tally, n_round: int) -> None:
        rng = np.random.default_rng([seed, n_round])
        # one ball at a time, its neurons in seeded order
        order = [(src, int(j)) for src in BALLS for j in rng.permutation(n)]
        for op, (src, j) in enumerate(order):
            dst, _ = partner[(src, 0)]
            noisy = bitmaps[src][j].copy().reshape(-1)
            noisy[rng.choice(DIM, FLIPS, replace=False)] ^= 1
            noisy = noisy.reshape(SIDE, SIDE)
            tally.attempted += 1
            trace_op(trace, op)
            try:
                (result, recalled), seconds, tick_s = probe.timed(lambda: query(src, noisy, dst))
            except CbrnError as exc:
                tally.failed += 1
                print(f"query {src}:{j} -> {dst} failed: {exc!r}")
                continue
            tally.record(seconds, tick_s)
            trace_op(trace, None)
            k = oracles[src].argmax(noisy)
            require(result.source_neuron == k, f"query {src}:{j} recognised {result.source_neuron}, oracle {k}")
            _, l = partner[(src, k)]
            require(result.target_neuron == l, f"query {src}:{j} landed on {dst}:{result.target_neuron}, link is {l}")
            require(result.q == oracle.THETA, f"query {src}:{j} cross q {result.q!r}")
            require(np.array_equal(recalled.bits, bitmaps[dst][l]), f"recalled {dst}:{l} differs from the stored bitmap")

    def finish() -> None:
        state["unique"] = check_cues(system, bitmaps)
        state["sizes"] = memory_sizes(system)

    return _phases(stream, seconds, trace, probe, setup_s=setup_s, state=state, finish=finish)


# -- shared rounds --------------------------------------------------------------------


def trace_op(trace, op: int | None) -> None:
    """Spans are recorded under operation `op`; None pauses recording for checks."""
    if trace is not None:
        trace.active = op is not None
        trace.op = -1 if op is None else op


def _phases(round_fn, seconds, trace, probe, setup_s, state, finish=None) -> dict:
    """Untraced: rounds for `seconds`.  Traced: rounds alternate untraced and
    traced, so that drift during the run falls on both alike."""
    if trace is None:
        tally = Tally(probe)
        with counted(tally):
            run_rounds(tally, seconds, lambda n: round_fn(tally, n))
        return {"tally": tally, "metrics": end_to_end(tally, setup_s, peak_rss_mb())}
    plain, traced = Tally(probe), Tally(probe)
    with counted(plain, traced):
        for n in rounds(seconds, 2):
            if n % 2 == 0:
                round_fn(plain, n)
                continue
            trace.install()
            try:
                round_fn(traced, n)
            finally:
                trace.uninstall()
        if finish is not None:
            finish()
    unique, probes = state["unique"]
    return {"tally": traced, "plain": plain, "unique_fire": unique / probes, "startup_ms": 0.0,
            "model_bytes": 0.0, "sizes": state["sizes"]}
