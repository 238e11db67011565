"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they pass; assertions carry the stated tolerances.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from cbrn import patterns, qr, store
from cbrn.errors import NoAssociation, NoRecognition
from cbrn.memory import MemorySystem, SystemConfig
from conftest import CLASSIC_PAIRS, make_toy_system, pair_classic, train_full_system

THETA = 100.0
D = 72.0


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {title}")
        raise
    print(f"[criterion {number}] PASS: {title}")


@pytest.fixture(scope="module")
def catalog():
    return patterns.default_catalog()


@pytest.fixture(scope="module")
def demo(catalog):
    """Trained + classic-paired system with its source bitmaps and vectors."""
    system = pair_classic(train_full_system())
    bitmaps = {}
    vectors = {}
    for group in catalog:
        for index, label in enumerate(group.labels):
            bitmap = qr.render(qr.encode_label(label))
            bitmaps[(group.name, index)] = bitmap
            vectors[(group.name, index)] = patterns.normalize(bitmap)
    return system, bitmaps, vectors


def assert_one_shot_exactness(system, catalog, bitmaps, vectors):
    for group in catalog:
        for index in range(len(group.labels)):
            key = (group.name, index)
            recalled = system.recall_forward(group.name, index)
            assert np.abs(recalled - vectors[key]).max() <= 1e-12
            rebuilt = patterns.to_pattern(recalled, 116, 116)
            assert rebuilt == bitmaps[key]


def assert_cue_recognition(system, catalog, vectors):
    for group in catalog:
        for index in range(len(group.labels)):
            response = system.cue_response(group.name, vectors[(group.name, index)])
            assert abs(response.q[index] - THETA) <= 1e-9
            assert response.argmax == index
            others = np.delete(response.q, index)
            assert (others < response.q[index]).all()  # strict argmax


def assert_cross_responses(system):
    for ball_a, k, ball_b, l in CLASSIC_PAIRS:
        for src, src_n, dst, dst_n in ((ball_a, k, ball_b, l), (ball_b, l, ball_a, k)):
            response = system.cross_response(src, src_n, dst)
            assert response.q[dst_n] == THETA  # exact one-shot value
            assert abs(response.q[dst_n] - 99.0) <= 1.0  # documented deviation band
            others = np.delete(response.q, dst_n)
            assert (others == 0.0).all()
            assert response.fired == (dst_n,)


class TestAcceptance:
    def test_criterion_1_one_shot_storage_exactness(self, catalog):
        with criterion(1, "one-shot storage reproduces all 21 patterns bit-exactly"):
            start = time.perf_counter()
            system = train_full_system()
            bitmaps = {
                (g.name, i): qr.render(qr.encode_label(label))
                for g in catalog
                for i, label in enumerate(g.labels)
            }
            vectors = {key: patterns.normalize(bm) for key, bm in bitmaps.items()}
            assert_one_shot_exactness(system, catalog, bitmaps, vectors)
            elapsed = time.perf_counter() - start
            assert elapsed <= 5.0, f"took {elapsed:.2f}s, budget is 5s"

    def test_criterion_2_cue_recognition_and_scale_law(self, demo, catalog):
        system, _, vectors = demo
        with criterion(2, "trained neurons respond at theta and win their ball"):
            assert_cue_recognition(system, catalog, vectors)

            # energy scale law against a loop-based oracle, 100 random instances
            rng = np.random.default_rng(20_240_601)
            for _ in range(100):
                dim = 32
                y = rng.uniform(0.0, 1.0, size=dim)
                toy = MemorySystem(SystemConfig(dim=dim))
                toy.add_ball("X", ["x0"])
                toy.store("X", 0, y)
                q_impl = float(toy.balls["X"].cue_row(0) @ y)

                v_oracle = [0.0] * dim
                q0 = sum(v_oracle[j] * y[j] for j in range(dim))
                for j in range(dim):
                    v_oracle[j] += (THETA - q0) * y[j]
                q_oracle = sum(v_oracle[j] * y[j] for j in range(dim))
                energy = sum(float(v) ** 2 for v in y)

                assert abs(q_impl - q_oracle) <= 1e-9
                assert abs(q_impl - THETA * energy) <= 1e-9

    def test_criterion_3_cross_association_and_chain(self, demo):
        system, _, vectors = demo
        with criterion(3, "cross pairs respond 100/0 and the chain ends at Color 1"):
            assert_cross_responses(system)

            hops = (("Color", "Style"), ("Style", "Volume"), ("Volume", "Color"))
            probe = vectors[("Color", 0)]
            path = []
            for src, dst in hops:
                result = system.associate(src, probe, dst)
                path.append((src, result.source_neuron, dst, result.target_neuron))
                probe = result.recalled
            assert path == [
                ("Color", 0, "Style", 3),
                ("Style", 3, "Volume", 6),
                ("Volume", 6, "Color", 1),
            ]

    def test_criterion_4_fixed_point_suite(self, catalog):
        with criterion(4, "a repeated recall or cross op is a zero-delta no-op, a cue op on an exact unit vector too"):
            # recall rows reach their target bit-exactly for every real pattern
            system = train_full_system()
            for group in catalog:
                for index in range(len(group.labels)):
                    target = system.recall_forward(group.name, index)
                    again = system.learn_recall_weights(group.name, index, target)
                    assert again.max_delta == 0.0

            # cue rows: unit energy must be exactly representable, so use
            # patterns whose popcount is a power of four (1/sqrt is a power
            # of two) alongside an exact toy vector
            rng = np.random.default_rng(7)
            for popcount in (4, 256, 4096):
                flat = np.zeros(13_456, dtype=np.uint8)
                flat[rng.choice(13_456, size=popcount, replace=False)] = 1
                bitmap = patterns.BinaryPattern(flat.reshape(116, 116))
                vector = patterns.normalize(bitmap)
                exact = MemorySystem(SystemConfig())
                exact.add_ball("E", ["e0"])
                exact.store("E", 0, vector)
                again = exact.learn_cue_weights("E", 0)
                assert again.max_delta == 0.0
                assert exact.cue_response("E", vector).q[0] == THETA

            toy = MemorySystem(SystemConfig(dim=2))
            toy.add_ball("T", ["t0"])
            toy.store("T", 0, [0.6, 0.8])
            assert toy.learn_recall_weights("T", 0, [0.6, 0.8]).max_delta == 0.0
            assert toy.learn_cue_weights("T", 0).max_delta == 0.0

            # cross links sit exactly at theta after one shot
            paired = pair_classic(train_full_system())
            for ball_a, k, ball_b, l in CLASSIC_PAIRS:
                forward, backward = paired.learn_cross_weights(ball_a, k, ball_b, l)
                assert forward.max_delta == 0.0
                assert backward.max_delta == 0.0

    def test_criterion_5_threshold_monotonicity(self, demo):
        system, _, _ = demo
        with criterion(5, "lowering the threshold only grows the fired set"):
            rng = np.random.default_rng(99)
            for probe_index in range(50):
                probe = patterns.normalize(qr.random_pattern(seed=1000 + probe_index))
                ball = ("Color", "Style", "Volume")[probe_index % 3]
                low, high = sorted(rng.uniform(0.5, 110.0, size=2))
                fired_low = set(system.cue_response(ball, probe, threshold=low).fired)
                fired_high = set(system.cue_response(ball, probe, threshold=high).fired)
                assert fired_low >= fired_high

    def test_criterion_6_qr_structural_suite(self, catalog):
        from test_qr import (
            ALIGNMENT,
            FINDER,
            FORMAT_HORIZONTAL,
            FORMAT_VERTICAL,
            read_format,
            valid_format_words,
        )
        from cbrn.galois import syndromes

        with criterion(6, "every label yields a structurally valid 116x116 symbol"):
            legal = valid_format_words()
            timing = [(k + 1) % 2 for k in range(8, 21)]
            for group in catalog:
                for label in group.labels:
                    matrix = qr.encode_label(label)
                    g = matrix.modules
                    np.testing.assert_array_equal(g[0:7, 0:7], FINDER)
                    np.testing.assert_array_equal(g[0:7, 22:29], FINDER)
                    np.testing.assert_array_equal(g[22:29, 0:7], FINDER)
                    assert list(g[6, 8:21]) == timing
                    assert list(g[8:21, 6]) == timing
                    np.testing.assert_array_equal(g[20:25, 20:25], ALIGNMENT)
                    vert = read_format(g, FORMAT_VERTICAL)
                    assert vert == read_format(g, FORMAT_HORIZONTAL)
                    assert vert in legal

                    codeword = qr.encode_codewords(label)
                    assert syndromes(codeword, 15) == [0] * 15
                    corrupted = bytearray(codeword)
                    corrupted[len(corrupted) // 2] ^= 0x41
                    assert any(syndromes(bytes(corrupted), 15))

                    rendered = qr.render(matrix)
                    assert (rendered.width, rendered.height) == (116, 116)
                    assert rendered.dim == 13_456

    def test_criterion_7_persistence_round_trip(self, demo, catalog, tmp_path):
        system, bitmaps, vectors = demo
        with criterion(7, "save/load/save is byte-identical and behavior-preserving"):
            first = tmp_path / "first.cbrn"
            second = tmp_path / "second.cbrn"
            store.save(system, first)
            loaded = store.load(first)
            store.save(loaded, second)
            assert first.read_bytes() == second.read_bytes()

            assert_one_shot_exactness(loaded, catalog, bitmaps, vectors)
            assert_cue_recognition(loaded, catalog, vectors)
            assert_cross_responses(loaded)

    def test_criterion_8_naive_oracle_equivalence(self):
        with criterion(8, "toy systems match a naive loop-based reimplementation"):
            rng = np.random.default_rng(2024)
            for trial in range(5):
                dim = 8
                stored = {
                    ball: [unit_vector(rng, dim) for _ in range(3)]
                    for ball in ("P", "Q", "R")
                }
                system = make_toy_system(stored, dim=dim)
                naive = NaiveMemory(dim)
                for ball, vecs in stored.items():
                    for i, vec in enumerate(vecs):
                        naive.store(ball, i, [float(x) for x in vec])
                pair_list = [("P", 0, "Q", 1), ("Q", 2, "R", 0), ("R", 1, "P", 2)]
                for a, k, b, l in pair_list:
                    system.learn_cross_weights(a, k, b, l)
                    naive.link(a, k, b, l)

                probes = [unit_vector(rng, dim) for _ in range(10)]
                probes += [vec for vecs in stored.values() for vec in vecs]
                for probe in probes:
                    listed = [float(x) for x in probe]
                    for ball in stored:
                        response = system.cue_response(ball, probe)
                        # this seed keeps q away from the firing boundary, so
                        # fired-set equality is insensitive to rounding order
                        assert np.abs(response.q - D).min() > 1e-6
                        q_naive, fired_naive, arg_naive = naive.respond(ball, listed)
                        assert np.abs(response.q - np.array(q_naive)).max() <= 1e-9
                        assert list(response.fired) == fired_naive
                        assert response.argmax == arg_naive

                for a, vecs in stored.items():
                    for b in stored:
                        if a == b:
                            continue
                        for i, vec in enumerate(vecs):
                            listed = [float(x) for x in vec]
                            expected = naive.associate(a, listed, b)
                            if expected is None:
                                with pytest.raises((NoRecognition, NoAssociation)):
                                    system.associate(a, vec, b)
                            else:
                                result = system.associate(a, vec, b)
                                assert (result.source_neuron, result.target_neuron) == expected


class TestReadmeRecognitionFigures:
    """The figures README "How it works" gives for the clean stored probes of the bundled labels."""

    TIE_GROUPS = ({"orange", "blue", "purple"}, {"yellow", "indigo"}, {"oval", "triangle"},
                  {"medium", "small-medium", "mini"})

    def test_fired_sets_own_q_and_worst_overlap(self, demo, catalog):
        system, _, vectors = demo
        alone, below_theta, overlaps = [], [], {}
        for group in catalog:
            for index, label in enumerate(group.labels):
                response = system.cue_response(group.name, vectors[(group.name, index)])
                assert response.threshold == D
                fired = {group.labels[i] for i in response.fired}
                if fired == {label}:
                    alone.append(label)
                else:
                    assert fired in self.TIE_GROUPS, (label, fired)
                    assert label in fired
                if response.q[index] < THETA:
                    below_theta.append(label)
                for other in range(index):
                    overlap = float(vectors[(group.name, index)] @ vectors[(group.name, other)])
                    overlaps[group.name, group.labels[other], label] = overlap
        assert len(alone) == 11
        assert len(below_theta) == 9  # these fire nothing under `recall --threshold 100`; the other 12 fire themselves
        worst = max(overlaps, key=overlaps.get)
        assert worst == ("Color", "yellow", "indigo")
        assert round(overlaps[worst], 3) == 0.909


def unit_vector(rng, dim):
    v = rng.uniform(0.05, 1.0, size=dim)
    return v / np.linalg.norm(v)


class NaiveMemory:
    """Loop-only reference: dense matrices, no vectorization, no shortcuts."""

    def __init__(self, dim, theta=THETA, threshold=D):
        self.dim = dim
        self.theta = theta
        self.threshold = threshold
        self.w = {}
        self.v = {}
        self.u = {}

    def _rows(self, table, ball, i):
        return table.setdefault(ball, {}).setdefault(i, [0.0] * self.dim)

    def store(self, ball, i, target):
        w_row = self._rows(self.w, ball, i)
        for j in range(self.dim):
            w_row[j] += 1.0 * (target[j] - w_row[j]) * 1.0
        y = list(w_row)
        v_row = self._rows(self.v, ball, i)
        q = 0.0
        for j in range(self.dim):
            q += v_row[j] * y[j]
        for j in range(self.dim):
            v_row[j] += 1.0 * (self.theta - q) * y[j]

    def respond(self, ball, probe):
        qs = []
        for i in sorted(self.v.get(ball, {})):
            total = 0.0
            for j in range(self.dim):
                total += self.v[ball][i][j] * probe[j]
            qs.append(total)
        fired = [i for i, q in enumerate(qs) if q >= self.threshold]
        arg = 0
        for i, q in enumerate(qs):
            if q > qs[arg]:
                arg = i
        return qs, fired, arg

    def link(self, a, k, b, l):
        for key in ((a, k, b, l), (b, l, a, k)):
            u = self.u.get(key, 0.0)
            u += 1.0 * (self.theta - u) * 1.0
            self.u[key] = u

    def associate(self, from_ball, probe, to_ball):
        qs, fired, k = self.respond(from_ball, probe)
        if not fired:
            return None
        targets = [
            self.u.get((from_ball, k, to_ball, l), 0.0)
            for l in sorted(self.v.get(to_ball, {}))
        ]
        fired_targets = [l for l, q in enumerate(targets) if q >= self.threshold]
        if not fired_targets:
            return None
        best = 0
        for l, q in enumerate(targets):
            if q > targets[best]:
                best = l
        return k, best
