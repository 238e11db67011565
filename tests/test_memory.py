import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbrn import memory, patterns, store
from cbrn.errors import (
    DimensionMismatch,
    IntraBallLink,
    NeuronIndexError,
    NoAssociation,
    NoRecognition,
    NonFiniteWeight,
    UnknownBall,
)
from cbrn.memory import (
    THETA,
    THRESHOLD,
    MemorySystem,
    SystemConfig,
)
from conftest import held_arrays, make_toy_system, pair_classic, recall_rows, train_full_system

unit_pairs = st.sampled_from(
    [(0.6, 0.8), (1.0, 0.0), (0.0, 1.0), (0.28, 0.96), (0.8, 0.6)]
)


def small_system(dim=2):
    system = MemorySystem(SystemConfig(dim=dim))
    system.add_ball("A", ["a0", "a1", "a2"])
    system.add_ball("B", ["b0", "b1", "b2"])
    return system


class TestConfig:
    """`dim` is the one setting; theta and the threshold D are the model's constants, so no value of either is one."""

    def test_defaults(self):
        assert [field.name for field in fields(SystemConfig)] == ["dim"]
        assert SystemConfig().dim == 13_456 and (THETA, THRESHOLD) == (100.0, 72.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"theta": 50.0, "threshold": 72.0},
            {"theta": 100.0, "threshold": 0.0},
            {"theta": 72.0},
            {"theta": 72.0 * (1 + 1e-10)},  # within the 1e-9 margin
            {"threshold": -1.0},
            {"theta": -1.0, "threshold": -2.0},
            {"dim": 0},
        ],
    )
    def test_invalid_rejected(self, kw):
        if kw.keys() == {"dim"}:
            with pytest.raises(ValueError, match="^dim must be positive$"):
                SystemConfig(**kw)
        else:
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{next(iter(kw))}'"):
                SystemConfig(**kw)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["theta", "threshold"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            SystemConfig(**{field: value})


class TestRecallPath:
    def test_trained_neuron_replays_target(self):
        system = small_system()
        system.learn_recall_weights("A", 0, [0.6, 0.8])
        np.testing.assert_array_equal(system.recall_forward("A", 0), [0.6, 0.8])

    def test_untrained_neuron_is_silent(self):
        system = small_system()
        np.testing.assert_array_equal(system.recall_forward("A", 1), [0.0, 0.0])

    def test_row_is_returned_as_given(self):
        system = small_system()
        system.balls["A"].set_recall_row(0, [0.6, 0.8])
        np.testing.assert_array_equal(system.recall_forward("A", 0), [0.6, 0.8])

    def test_learning_report(self):
        system = small_system()
        report = system.learn_recall_weights("A", 0, [0.6, 0.8])
        assert report.error == 0.5
        assert report.max_delta == 0.8

    def test_second_pass_is_exact_noop(self):
        system = small_system()
        system.learn_recall_weights("A", 0, [0.6, 0.8])
        again = system.learn_recall_weights("A", 0, [0.6, 0.8])
        assert again.max_delta == 0.0
        assert again.error == 0.0

    def test_neighbor_rows_do_not_leak(self):
        system = small_system()
        system.learn_recall_weights("A", 0, [0.6, 0.8])
        system.balls["A"].set_recall_row(1, [9.0, 9.0])  # perturb another neuron
        np.testing.assert_array_equal(system.recall_forward("A", 0), [0.6, 0.8])

    def test_index_and_dim_validation(self):
        system = small_system()
        with pytest.raises(NeuronIndexError):
            system.recall_forward("A", 3)
        with pytest.raises(DimensionMismatch):
            system.learn_recall_weights("A", 0, [1.0, 2.0, 3.0])
        with pytest.raises(UnknownBall):
            system.recall_forward("C", 0)


class TestCuePath:
    def test_trained_neuron_hits_theta(self):
        system = small_system()
        system.store("A", 0, [0.6, 0.8])
        response = system.cue_response("A", [0.6, 0.8])
        assert response.q[0] == 100.0
        assert response.fired == (0,)
        assert response.argmax == 0

    def test_cue_row_after_one_step(self):
        system = small_system()
        system.store("A", 0, [0.6, 0.8])
        np.testing.assert_array_equal(system.balls["A"].cue_row(0), [60.0, 80.0])

    def test_orthogonal_probe_is_silent(self):
        system = small_system()
        system.store("A", 0, [1.0, 0.0])
        response = system.cue_response("A", [0.0, 1.0])
        assert response.q[0] == 0.0
        assert response.fired == ()

    def test_partial_overlap_scales_response(self):
        # stored basis pattern against a probe with inner product 0.5
        system = small_system()
        system.store("A", 0, [1.0, 0.0])
        probe = np.array([0.5, math.sqrt(0.75)])
        response = system.cue_response("A", probe)
        assert abs(response.q[0] - 50.0) < 1e-12
        assert 0 not in response.fired  # 50 < 72
        # explicit dot product oracle
        manual = sum(v * p for v, p in zip(system.balls["A"].cue_row(0), probe))
        assert response.q[0] == manual

    def test_fixed_point_is_exact(self):
        system = small_system()
        system.store("A", 0, [0.6, 0.8])
        again = system.learn_cue_weights("A", 0)
        assert again.max_delta == 0.0
        assert again.error == 0.0

    def test_unnormalized_energy_sets_response(self):
        # raw energy 0.7265 drives the one-step response to 72.65
        system = small_system()
        y = np.array([math.sqrt(0.7265), 0.0])
        system.learn_recall_weights("A", 0, y)
        system.learn_cue_weights("A", 0)
        q = float(system.balls["A"].cue_row(0) @ y)
        manual = 100.0 * float(y @ y)
        assert abs(q - 72.65) < 1e-9
        assert abs(q - manual) < 1e-12

    def test_threshold_override(self):
        system = small_system()
        system.store("A", 0, [1.0, 0.0])
        probe = np.array([0.5, math.sqrt(0.75)])
        assert system.cue_response("A", probe).fired == ()
        assert system.cue_response("A", probe, threshold=10.0).fired == (0,)

    @pytest.mark.parametrize("threshold", [0.0, -5.0, math.nan, math.inf])
    def test_threshold_override_must_be_positive(self, threshold):
        # at a threshold <= 0 an untrained link (q = 0) would fire
        system = small_system()
        system.store("A", 0, [1.0, 0.0])
        with pytest.raises(ValueError, match="threshold must be positive"):
            system.cue_response("A", [1.0, 0.0], threshold=threshold)
        with pytest.raises(ValueError, match="threshold must be positive"):
            system.associate("A", [1.0, 0.0], "B", threshold=threshold)

    def test_argmax_tie_breaks_low(self):
        system = small_system()
        system.store("A", 0, [1.0, 0.0])
        system.store("A", 1, [0.0, 1.0])
        response = system.cue_response("A", [math.sqrt(0.5), math.sqrt(0.5)])
        assert abs(response.q[0] - response.q[1]) < 1e-12
        assert response.argmax == 0

    @given(unit_pairs)
    def test_store_reaches_theta_for_unit_vectors(self, pair):
        system = small_system()
        system.store("A", 0, list(pair))
        q = system.cue_response("A", list(pair)).q[0]
        assert abs(q - 100.0) <= 1e-9


class TestClosedForm:
    """After storing unit patterns, responses equal theta times the overlap."""

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_response_is_theta_times_inner_product(self, seed):
        rng = np.random.default_rng(seed)
        dim = 16
        stored = [vec / np.linalg.norm(vec) for vec in rng.random((3, dim))]
        system = make_toy_system({"A": stored}, dim=dim)
        probe = rng.random(dim)
        probe /= np.linalg.norm(probe)
        response = system.cue_response("A", probe)
        for i, vec in enumerate(stored):
            overlap = sum(float(a) * float(b) for a, b in zip(vec, probe))
            assert abs(response.q[i] - 100.0 * overlap) <= 1e-9

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_stored_pattern_is_its_own_argmax(self, seed):
        rng = np.random.default_rng(seed)
        dim = 32
        raw = rng.integers(0, 2, size=(4, dim))
        raw[:, :4] = np.eye(4)  # keep the patterns distinct
        stored = [patterns.normalize(patterns.BinaryPattern(row.reshape(1, -1))) for row in raw]
        system = make_toy_system({"A": stored}, dim=dim)
        for i, vec in enumerate(stored):
            assert system.cue_response("A", vec).argmax == i


class TestThresholdMonotonicity:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_lower_threshold_fires_superset(self, seed):
        rng = np.random.default_rng(seed)
        dim = 16
        stored = [vec / np.linalg.norm(vec) for vec in rng.random((3, dim))]
        system = make_toy_system({"A": stored}, dim=dim)
        probe = rng.random(dim)
        probe /= np.linalg.norm(probe)
        low, high = sorted(rng.uniform(1.0, 99.0, size=2))
        fired_low = set(system.cue_response("A", probe, threshold=low).fired)
        fired_high = set(system.cue_response("A", probe, threshold=high).fired)
        assert fired_low >= fired_high


class TestCrossPath:
    def test_pair_training_reaches_theta_both_ways(self):
        system = small_system()
        forward, backward = system.learn_cross_weights("A", 0, "B", 2)
        assert system.links["A", "B"][0, 2] == 100.0
        assert system.links["B", "A"][2, 0] == 100.0
        assert forward.error == 5000.0
        assert backward.error == 5000.0

    def test_only_trained_target_fires(self):
        system = small_system()
        system.learn_cross_weights("A", 0, "B", 2)
        response = system.cross_response("A", 0, "B")
        np.testing.assert_array_equal(response.q, [0.0, 0.0, 100.0])
        assert response.fired == (2,)

    def test_untrained_source_is_silent(self):
        system = small_system()
        system.learn_cross_weights("A", 0, "B", 2)
        response = system.cross_response("A", 1, "B")
        np.testing.assert_array_equal(response.q, [0.0, 0.0, 0.0])
        assert response.fired == ()

    def test_repeat_training_is_exact_noop(self):
        system = small_system()
        system.learn_cross_weights("A", 0, "B", 2)
        forward, backward = system.learn_cross_weights("A", 0, "B", 2)
        assert forward.max_delta == 0.0 and backward.max_delta == 0.0

    def test_intra_ball_pair_rejected(self):
        system = small_system()
        with pytest.raises(IntraBallLink):
            system.learn_cross_weights("A", 0, "A", 1)
        with pytest.raises(IntraBallLink):
            system.cross_response("A", 0, "A")

    def test_bad_indices_rejected(self):
        system = small_system()
        with pytest.raises(NeuronIndexError):
            system.learn_cross_weights("A", 3, "B", 0)
        with pytest.raises(UnknownBall):
            system.learn_cross_weights("A", 0, "C", 0)


class TestAssociate:
    def build(self):
        system = small_system(dim=4)
        system.store("A", 0, [1.0, 0.0, 0.0, 0.0])
        system.store("A", 1, [0.0, 1.0, 0.0, 0.0])
        system.store("B", 2, [0.0, 0.0, 0.6, 0.8])
        system.learn_cross_weights("A", 0, "B", 2)
        return system

    def test_roundtrip_association(self):
        system = self.build()
        result = system.associate("A", [1.0, 0.0, 0.0, 0.0], "B")
        assert (result.source_neuron, result.target_neuron) == (0, 2)
        assert result.q == 100.0
        np.testing.assert_array_equal(result.recalled, [0.0, 0.0, 0.6, 0.8])
        back = system.associate("B", [0.0, 0.0, 0.6, 0.8], "A")
        assert (back.source_neuron, back.target_neuron) == (2, 0)

    def test_unrecognized_probe(self):
        system = self.build()
        # overlap with every stored pattern stays below threshold/theta
        probe = np.array([0.5, 0.5, 0.5, 0.5])
        for i in range(3):
            stored = system.recall_forward("A", i)
            assert float(stored @ probe) < 0.72
        with pytest.raises(NoRecognition):
            system.associate("A", probe, "B")

    def test_unlinked_source(self):
        system = self.build()
        with pytest.raises(NoAssociation):
            system.associate("A", [0.0, 1.0, 0.0, 0.0], "B")

    @pytest.mark.parametrize("probe", [[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]], ids=["stored", "unrecognized"])
    def test_same_ball_is_intra_ball_link_whatever_the_probe(self, probe):
        system = self.build()
        with pytest.raises(IntraBallLink, match="within one ball"):
            system.associate("A", probe, "A")
        with pytest.raises(UnknownBall):  # an unknown ball is still named first
            system.associate("C", probe, "C")

    @pytest.mark.parametrize("probe", [[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]], ids=["stored", "unrecognized"])
    def test_unknown_target_ball_is_named_whatever_the_probe(self, probe):
        system = self.build()
        with pytest.raises(UnknownBall, match="unknown ball 'Zebra'"):
            system.associate("A", probe, "Zebra")


class TestLinkArrays:
    """A pair's link array is made at the pair's first training; an untrained pair reads as zeros and adds none."""

    def test_a_catalog_system_starts_without_link_arrays(self, catalog):
        system = MemorySystem.from_catalog(catalog)
        assert list(system.balls) == ["Color", "Style", "Volume"] and system.links == {}

    def test_reading_an_untrained_pair_gives_zeros_and_adds_nothing(self):
        system = TestAssociate().build()
        system.add_ball("C", ["c0", "c1"])
        system.store("C", 0, [0.0, 0.0, 0.0, 1.0])
        before = list(system.links)
        response = system.cross_response("A", 0, "C")
        np.testing.assert_array_equal(response.q, [0.0, 0.0])
        assert response.fired == () and response.argmax == 0
        with pytest.raises(NoAssociation):
            system.associate("A", [1.0, 0.0, 0.0, 0.0], "C")
        with pytest.raises(NoAssociation):
            system.associate("C", [0.0, 0.0, 0.0, 1.0], "B")
        np.testing.assert_array_equal(system.link_weights("C", "A"), np.zeros((2, 3)))
        assert system.link_weights("A", "B") is system.links["A", "B"]
        assert list(system.links) == before == [("A", "B"), ("B", "A")]
        assert system.trained_links() == [("A", 0, "B", 2, 100.0), ("B", 2, "A", 0, 100.0)]

    @pytest.mark.parametrize("pair", [("A", "Z"), ("Z", "A")])
    def test_an_unknown_ball_is_unknown_ball(self, pair):
        with pytest.raises(UnknownBall, match="^unknown ball 'Z'; have \\['A', 'B'\\]$"):
            small_system().link_weights(*pair)

    def test_the_first_pair_makes_both_directions_and_a_repeat_keeps_them(self):
        system = small_system()
        system.add_ball("C", ["c0"])
        system.learn_cross_weights("C", 0, "A", 2)
        forward, backward = system.links["C", "A"], system.links["A", "C"]
        assert sorted(system.links) == [("A", "C"), ("C", "A")]
        np.testing.assert_array_equal(forward, [[0.0, 0.0, 100.0]])
        np.testing.assert_array_equal(backward, [[0.0], [0.0], [100.0]])
        system.learn_cross_weights("A", 1, "C", 0)
        assert system.links["C", "A"] is forward and system.links["A", "C"] is backward
        assert backward[1, 0] == 100.0 and len(system.links) == 2


class TestRepeatedStore:
    def test_on_the_bundled_catalog_only_cue_rows_move_and_only_by_rounding(self, catalog):
        # a cue step from zero lands within rounding of theta, not on it: a repeat
        # moves each of the 21 v rows by 5.2e-16 to 3.0e-15
        system = train_full_system()
        refs = [(group.name, index) for group in catalog for index in range(len(group.labels))]

        def fired_sets():
            return [system.cue_response(ball, system.recall_forward(ball, index)).fired for ball, index in refs]

        before = fired_sets()
        for ball, index in refs:
            w_report, v_report = system.store(ball, index, system.recall_forward(ball, index))
            assert w_report.max_delta == 0.0
            assert 0.0 <= v_report.max_delta < 1e-12
        assert fired_sets() == before


class TestOverflow:
    def test_huge_theta_reports_inf_error_and_stores_finite_row(self):
        # a loaded cue row whose response to the stored pattern is -1e308 puts q as far below theta
        # as a huge theta was above a zero row: the error theta - q is finite and its square is not
        system = small_system()
        system.balls["A"].set_cue_row(0, [-6e307, -8e307])
        with pytest.warns(RuntimeWarning, match="overflow"):
            _, v_report = system.store("A", 0, [0.6, 0.8])
        assert v_report.error == math.inf
        assert np.isfinite(system.balls["A"].cue_row(0)).all()

    def test_overflowing_cue_step_raises_and_keeps_the_row(self):
        # a huge stored row: the first cue step leaves a finite row whose
        # response to it overflows, so the second step's error is -inf
        system = small_system()
        with pytest.warns(RuntimeWarning, match="overflow"):
            system.learn_recall_weights("A", 0, [1e300, 1e300])
            system.learn_cue_weights("A", 0)
        row = system.balls["A"].cue_row(0)
        assert np.isfinite(row).all()
        with pytest.raises(NonFiniteWeight, match="v row A:0 left a non-finite weight$"), pytest.warns(RuntimeWarning):
            system.learn_cue_weights("A", 0)
        np.testing.assert_array_equal(system.balls["A"].cue_row(0), row)

    def test_a_cue_step_past_the_float_range_from_a_finite_error_raises(self):
        # the error theta - q is 1e200, finite; the step (theta - q) * row is not
        system = small_system()
        system.balls["A"].set_recall_row(0, [1e200, 0.0])
        system.balls["A"].set_cue_row(0, [-1.0, 0.0])
        with pytest.raises(NonFiniteWeight, match="v row A:0 left a non-finite weight$"), pytest.warns(RuntimeWarning):
            system.learn_cue_weights("A", 0)
        assert system.balls["A"].cue_row(0).tolist() == [-1.0, 0.0]

    def test_overflowing_recall_step_raises_and_keeps_the_row(self):
        # a loaded row far below the target: target - row overflows to inf
        system = small_system()
        system.balls["A"].set_recall_row(0, [-1.7e308, 0.5])
        row = system.balls["A"].recall_row(0)
        with pytest.raises(NonFiniteWeight, match="w row A:0 left a non-finite weight$"), pytest.warns(RuntimeWarning):
            system.learn_recall_weights("A", 0, [1.7e308, 0.5])
        assert system.balls["A"].recall_row(0).view(np.uint64).tolist() == row.view(np.uint64).tolist()

    def test_huge_theta_cross_step_warns_and_stores_theta(self):
        # loaded links far below theta: the error theta - u is finite but its square is not
        system = small_system()
        system._link_array("A", "B")[1, 2] = system._link_array("B", "A")[2, 1] = -1e308
        with pytest.warns(RuntimeWarning, match="overflow"):
            forward, backward = system.learn_cross_weights("A", 1, "B", 2)
        assert forward == backward and (forward.error, forward.max_delta) == (math.inf, 1e308)
        assert system.links["A", "B"][1, 2] == system.links["B", "A"][2, 1] == THETA

    def test_overflowing_cross_step_raises_and_keeps_both_links(self):
        # theta - u is finite for every finite u, so only a link the library holds at -inf, which no
        # model file can, gives an error past the float range
        system = small_system()
        system._link_array("A", "B")[1, 2] = -math.inf
        with pytest.raises(NonFiniteWeight, match="link A:1->B:2 left a non-finite weight$"):
            system.learn_cross_weights("A", 1, "B", 2)
        assert system.links["A", "B"][1, 2] == -math.inf and not system.links["B", "A"].any()



class TestStepMessages:
    """A learning step formats its NonFiniteWeight message only when it raises."""

    @staticmethod
    def counting_system():
        """A two-ball system whose ball ids count every `__format__` and `__str__` call."""
        class Id(str):
            formatted = 0

            def __format__(self, spec):
                Id.formatted += 1
                return str.__format__(self, spec)

            def __str__(self):
                Id.formatted += 1
                return str.__str__(self)

        system = MemorySystem(SystemConfig(dim=2))
        for name in "AB":
            system.add_ball(Id(name), [f"{name.lower()}{i}" for i in range(3)])
        return system, Id

    def test_store_and_pair_format_nothing(self):
        system, ids = self.counting_system()
        system.store("A", 1, [0.6, 0.8])
        system.store("B", 2, [0.8, 0.6])
        system.learn_cross_weights("A", 1, "B", 2)
        system.learn_cross_weights("A", 1, "B", 2)
        assert ids.formatted == 0

    def test_a_failing_row_step_names_its_row(self):
        system, ids = self.counting_system()
        system.balls["A"].set_recall_row(0, [-1.7e308, 0.5])
        with pytest.raises(NonFiniteWeight) as raised, pytest.warns(RuntimeWarning):
            system.learn_recall_weights("A", 0, [1.7e308, 0.5])
        assert str(raised.value) == "learning w row A:0 left a non-finite weight" and ids.formatted > 0

    def test_a_failing_link_step_names_its_link(self):
        system, ids = self.counting_system()
        system._link_array("A", "B")[1, 2] = -1e308  # the forward step's error squares to inf
        system._link_array("B", "A")[2, 1] = -math.inf  # and the backward step fails
        with pytest.raises(NonFiniteWeight) as raised, pytest.warns(RuntimeWarning, match="overflow"):
            system.learn_cross_weights("A", 1, "B", 2)
        assert str(raised.value) == "learning link B:2->A:1 left a non-finite weight" and ids.formatted > 0

def bits(value) -> int:
    """The IEEE bits of a float, so -0.0 differs from 0.0 and a nan equals itself."""
    return int(np.float64(value).view(np.uint64))


def reference_step(weight, target, output, x):
    """The learning step's arithmetic, one IEEE operation at a time: new weight, (error, max_delta)."""
    err = target - output(weight)
    step = err * x
    max_delta = float(np.maximum.reduce(np.abs(step), axis=None))
    step += weight
    return step, (0.5 * float(np.add.reduce(np.square(err), axis=None)), max_delta)


def target_step(weight, target):
    """A step with input 1: the new weight is the target itself, and the report that of `target - weight`."""
    err = target - weight
    return target, (0.5 * float(np.add.reduce(np.square(err), axis=None)),
                    float(np.maximum.reduce(np.abs(err), axis=None)))


# finite components with signed zeros, subnormals and values far from unit size
components = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]),
                       st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
DIM = 7


class TestLearningStepArithmetic:
    """Each rule's new weight and report equal the step's arithmetic written out, bit for bit.

    With input 1 (the recall and cross rules) the new weight is the target itself.
    """

    @staticmethod
    def system():
        system = MemorySystem(SystemConfig(dim=DIM))
        system.add_ball("A", ["a0", "a1"])
        system.add_ball("B", ["b0", "b1"])
        return system

    @staticmethod
    def assert_same(report, new, expected):
        row, fields = expected
        assert np.asarray(new).view(np.uint64).tolist() == np.asarray(row).view(np.uint64).tolist()
        assert [bits(v) for v in (report.error, report.max_delta)] == [bits(v) for v in fields]

    @settings(max_examples=150, deadline=None)
    @given(start=arrays(np.float64, DIM, elements=components), target=arrays(np.float64, DIM, elements=components),
           zero=st.booleans(), repeats=st.integers(1, 2))
    def test_recall_rule(self, start, target, zero, repeats):
        system = self.system()
        system.balls["A"].set_recall_row(1, np.zeros(DIM) if zero else start)
        for _ in range(repeats):
            expected = target_step(system.balls["A"].recall_row(1), target)
            report = system.learn_recall_weights("A", 1, target)
            self.assert_same(report, system.balls["A"].recall_row(1), expected)

    @settings(max_examples=150, deadline=None)
    @given(start=arrays(np.float64, DIM, elements=components), stored=arrays(np.float64, DIM, elements=components),
           zero=st.booleans(), repeats=st.integers(1, 2))
    def test_cue_rule(self, start, stored, zero, repeats):
        system = self.system()
        system.balls["A"].set_recall_row(0, stored / 1e3)  # products of two components stay far from overflow
        system.balls["A"].set_cue_row(0, np.zeros(DIM) if zero else start)
        yv = system.balls["A"].recall_row(0)
        for _ in range(repeats):
            expected = reference_step(system.balls["A"].cue_row(0), THETA, lambda row: float(row @ yv), yv)
            report = system.learn_cue_weights("A", 0)
            self.assert_same(report, system.balls["A"].cue_row(0), expected)

    @settings(max_examples=150, deadline=None)
    @given(forward=components, backward=components, repeats=st.integers(1, 2))
    def test_cross_rule(self, forward, backward, repeats):
        system = self.system()
        system._link_array("A", "B")[1, 0], system._link_array("B", "A")[0, 1] = forward, backward
        for _ in range(repeats):
            expected = [target_step(system.links[pair].item(k, l), THETA)
                        for pair, k, l in ((("A", "B"), 1, 0), (("B", "A"), 0, 1))]
            reports = system.learn_cross_weights("A", 1, "B", 0)
            self.assert_same(reports[0], system.links["A", "B"][1, 0], expected[0])
            self.assert_same(reports[1], system.links["B", "A"][0, 1], expected[1])

    def test_a_row_step_peaks_at_two_rows(self):
        # the error and a spare row, or the current cue row and the step; a third row-sized temporary would show here
        rng = np.random.default_rng(0)
        for target in (rng.random(SystemConfig().dim), rng.integers(0, 2, SystemConfig().dim) / 100.0):  # dense, packed
            system = MemorySystem()
            system.add_ball("A", ["a0"])
            system.store("A", 0, target / 2)
            for learn in (lambda: system.learn_recall_weights("A", 0, target), lambda: system.learn_cue_weights("A", 0)):
                tracemalloc.start()
                try:
                    learn()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 2.5 * target.nbytes
            assert (system.balls["A"].cue_index() is None) == (len(np.unique(target)) > 2)

    def test_a_blank_store_of_a_one_level_target_peaks_below_one_and_a_half_rows(self, monkeypatch):
        # the recall step's spare row and the packing of the target; the cue row is the level's step from +0.0 and a
        # copy of the recall row's support words, with no cue rule and so no BLAS product
        target = np.random.default_rng(1).integers(0, 2, SystemConfig().dim) / 100.0
        system = MemorySystem()
        ball = system.add_ball("A", ["a0"])
        monkeypatch.setattr(MemorySystem, "_learn_cue", None)
        tracemalloc.start()
        try:
            system.store("A", 0, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * target.nbytes
        assert ball._recall.dense is None and ball.cue_index() is not None
        assert ball._cue.words.tolist() == ball._recall.words.tolist() and ball._cue.levels[0] == THETA / 100.0

    def test_a_store_of_a_strided_target_is_a_store_of_its_contiguous_copy(self):
        # a dot product with a strided input may round to other bits than with a contiguous one; the second
        # store's cue step dots the first one's cue row with the target
        big = np.random.default_rng(7).random((SystemConfig().dim, 3))
        column, before = big[:, 0], big[:, 0].copy()
        reports, balls = [], []
        for target in (column, before.copy()):
            system = MemorySystem()
            system.add_ball("A", ["a0"])
            system.store("A", 0, big[:, 1].copy())
            reports.append(system.store("A", 0, target))
            balls.append(system.balls["A"])
        assert reports[0] == reports[1] and column.view(np.uint64).tolist() == before.view(np.uint64).tolist()
        for read in (lambda ball: ball.recall_row(0), lambda ball: ball.cue_row(0)):
            assert read(balls[0]).view(np.uint64).tolist() == read(balls[1]).view(np.uint64).tolist()


# levels of a stored target: both signs, subnormal, unit size, near 1.8e306 where THETA times it overflows, non-finite
BLANK_LEVELS = st.one_of(st.sampled_from([1.0, -0.5, 0.01, 5e-324, -1e-310, -2.2250738585072014e-308, 1.7e306,
                                          -1.8e306, 1e308, math.inf, -math.inf, math.nan]),
                         st.floats(5e-324, 2.2e-308), st.floats(-1.8e306, -1.79e306), st.floats(1.79e306, 1.8e306),
                         st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def blank_targets(draw):
    """A target of one level, all zeros, or dense: two levels, a -0.0, or any floats, non-finite ones included."""
    dim = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["one level", "zero", "two levels", "-0.0", "any"]))
    if kind == "any":
        return draw(arrays(np.float64, dim, elements=st.floats(width=64)))
    target = np.where(draw(arrays(np.bool_, dim)), draw(BLANK_LEVELS), 0.0) if kind != "zero" else np.zeros(dim)
    if kind in ("two levels", "-0.0"):
        target[draw(st.integers(0, dim - 1))] = -0.0 if kind == "-0.0" else draw(BLANK_LEVELS)
    return target


class TestBlankStore:
    """A store onto a blank neuron, both rows packed at +0.0, is the recall rule then the cue rule from +0.0 rows.

    Rows and reports are the rules', bit for bit, and so are the error raised, the row kept and the warnings given;
    a neuron with either row written takes the rules themselves.
    """

    # blank starts: a fresh neuron, and one written one level and then zero rows, as a load of zero rows writes them;
    # and two that are not blank, one row kind written one level
    STARTS = {"fresh": [], "zeroed": [("recall", 0.5), ("cue", 0.5), ("recall", 0.0), ("cue", 0.0)],
              "cue written": [("cue", 0.5)], "recall written": [("recall", 0.5)]}

    @classmethod
    def outcome(cls, learn, dim, target, action, start):
        """The reports' and rows' bits, the error raised and the warnings given by a learning call on neuron 0."""
        system = MemorySystem(SystemConfig(dim=dim))
        ball = system.add_ball("A", ["a0", "a1"])
        ball.set_recall_row(1, np.ones(dim))  # a neighbour the calls must not touch
        for kind, level in cls.STARTS[start]:
            (ball.set_recall_row if kind == "recall" else ball.set_cue_row)(0, np.full(dim, level))
        reports, raised = None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            try:
                reports = [bits(field) for report in learn(system, target) for field in (report.error, report.max_delta)]
            except (NonFiniteWeight, RuntimeWarning) as error:
                raised = type(error), str(error)
        rows = [[bits(x) for x in read(i)] for read in (ball.recall_row, ball.cue_row) for i in (0, 1)]
        return reports, raised, rows, [(w.category, str(w.message)) for w in caught]

    @settings(max_examples=400, deadline=None)
    @given(target=blank_targets(), action=st.sampled_from(["always", "error"]), start=st.sampled_from(sorted(STARTS)))
    @example(target=np.array([1.8e306, 0.0]), action="always", start="fresh")  # the cue level overflows; w is kept
    @example(target=np.array([1.8e306, 0.0]), action="error", start="fresh")
    @example(target=np.array([0.0, 5e-324, 5e-324]), action="always", start="zeroed")
    @example(target=np.array([math.nan, 1.0]), action="always", start="fresh")
    @example(target=np.array([0.25, 0.0]), action="always", start="cue written")  # the cue rule adds to the 0.5s
    def test_rows_reports_and_errors_are_the_general_rules(self, target, action, start):
        dim = target.size
        stored = self.outcome(lambda system, t: system.store("A", 0, t), dim, target, action, start)
        general = self.outcome(lambda system, t: (system.learn_recall_weights("A", 0, t),
                                                  system.learn_cue_weights("A", 0)), dim, target, action, start)
        assert stored == general
        if stored[1] is None and start in ("fresh", "zeroed"):
            with np.errstate(all="ignore"):
                new_w, w_fields = target_step(np.zeros(dim), target)
                new_v, v_fields = reference_step(np.zeros(dim), THETA, lambda row: float(row @ target), target.copy())
            assert stored[0] == [bits(field) for field in w_fields + v_fields]
            assert stored[2][0::2] == [[bits(x) for x in new_w], [bits(x) for x in new_v]]


# finite loaded weights far from any target: up to +-1e300, subnormals and signed zeros
far = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e20, -1e20, 1e300, -1e300]),
                st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))


class TestStepFromAnyWeight:
    """A step with input 1 stores its target bit for bit, however far the loaded weight is from it."""

    @settings(max_examples=100, deadline=None)
    @given(forward=far, backward=far)
    @example(forward=-1e20, backward=0.0)  # -1e20 + (100 + 1e20) would be 0.0, no link
    @example(forward=-1e300, backward=1e300)  # errors whose half squares pass the float range
    def test_both_links_read_theta(self, forward, backward):
        system = MemorySystem(SystemConfig(dim=2))
        system.add_ball("A", ["a0", "a1"])
        system.add_ball("B", ["b0"])
        system._link_array("A", "B")[1, 0], system._link_array("B", "A")[0, 1] = forward, backward
        with np.errstate(over="ignore"):  # a half square past the float range reports inf
            reports = system.learn_cross_weights("A", 1, "B", 0)
        assert bits(system.links["A", "B"][1, 0]) == bits(system.links["B", "A"][0, 1]) == bits(THETA)
        assert [r.max_delta for r in reports] == [abs(THETA - u) for u in (forward, backward)]

    @settings(max_examples=100, deadline=None)
    @given(start=arrays(np.float64, 5, elements=far), target=arrays(np.float64, 4, elements=far))
    @example(start=np.array([1e20, 0.0, 0.0, 0.0, 0.0]), target=np.full(4, 0.5))  # the sum would give 0.0 first
    def test_a_recall_row_is_its_target(self, start, target):
        target = np.append(target, -0.0)  # stored as -0.0, where a zero row's sum 0.0 + (-0.0 - 0.0) is 0.0
        system = MemorySystem(SystemConfig(dim=5))
        system.add_ball("A", ["a0"])
        system.balls["A"].set_recall_row(0, start)
        with np.errstate(over="ignore"):
            report = system.learn_recall_weights("A", 0, target)
        for row in (system.balls["A"].recall_row(0), system.recall_forward("A", 0)):
            assert row.view(np.uint64).tolist() == target.view(np.uint64).tolist()
        assert report.max_delta == float(np.abs(target - start).max())


class TestEveryAcceptedSettingFires:
    """A query threshold below theta fires every stored probe and trained link, however often a pair is learned."""

    # the query threshold as a share of theta, the trained value of a probe and a link, across theta
    @settings(max_examples=200, deadline=None)
    @given(share=st.one_of(st.sampled_from([1.0, 1 - 1e-12, 1 - 1e-10, 1 + 1e-12, 0.0, -1.0]), st.floats(0.3, 1.7)),
           repeats=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_refused_or_every_stored_probe_and_trained_link_fires(self, share, repeats, seed):
        dim, threshold = 24, share * THETA
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(2, 3, dim))
        bits[:, :, 0] = 1  # no empty pattern
        stored = {ball: [patterns.normalize(patterns.BinaryPattern(row.reshape(1, -1))) for row in rows]
                  for ball, rows in zip("AB", bits)}
        system = make_toy_system(stored, dim=dim)
        k, l = rng.integers(0, 3, size=2)
        if threshold <= 0:  # refused, since an untrained link (q = 0) would fire
            with pytest.raises(ValueError, match="threshold must be positive"):
                system.cue_response("A", stored["A"][k], threshold)
            return
        for _ in range(repeats):
            system.learn_cross_weights("A", k, "B", l)
            links = [system.cross_response("A", k, "B", threshold), system.cross_response("B", l, "A", threshold)]
            # one step from zero puts a link at theta and a stored probe's q within 1.05e-12 of it
            if THETA > threshold * (1 + 1e-9):
                for ball, vectors in stored.items():
                    for i, vector in enumerate(vectors):
                        assert i in system.cue_response(ball, vector, threshold).fired
                assert l in links[0].fired and k in links[1].fired
            elif threshold > THETA:
                assert links[0].fired == links[1].fired == ()
            system.store("A", k, stored["A"][k])  # a repeated store may only raise the own q


class TestThetaOnlyRescales:
    """q scales with the cue rows' level, theta times each pattern when stored from zero, and only D over it counts.

    Rows of another level c are written as loaded rows are, c times each pattern:
    what one step from zero toward a learning value c leaves, bit for bit.
    """

    @pytest.fixture(scope="class")
    def probes(self, label_bitmaps):
        """The 21 bundled labels' unit vectors, then 5 rounds of them with 10% of pixels flipped, as (ball, probe)."""
        rng = np.random.default_rng(1)
        noisy = []
        for _ in range(5):
            for (ball, _), pattern in label_bitmaps.items():
                bits_ = pattern.bits.copy().reshape(-1)
                bits_[rng.choice(bits_.size, bits_.size // 10, replace=False)] ^= 1
                noisy.append((ball, patterns.BinaryPattern(bits_.reshape(pattern.bits.shape))))
        clean = [(ball, pattern) for (ball, _), pattern in label_bitmaps.items()]
        return [(ball, patterns.normalize(pattern)) for ball, pattern in clean + noisy]

    @staticmethod
    def outcomes(catalog, label_bitmaps, probes, level=None, threshold=None):
        """Fired sets and argmax of the stored catalog, its cue rows rewritten at `level` times each pattern if given."""
        system = MemorySystem.from_catalog(catalog)
        for (ball, index), pattern in label_bitmaps.items():
            system.store(ball, index, patterns.normalize(pattern))
            if level is not None:
                system.balls[ball].set_cue_row(index, level * system.balls[ball].recall_row(index))
        return [(response.fired, response.argmax)
                for response in (system.cue_response(ball, probe, threshold) for ball, probe in probes)]

    @pytest.mark.parametrize("theta", [1.0, 50.0, 1e6])
    def test_fired_sets_and_argmax_match_the_default_model(self, catalog, label_bitmaps, probes, theta):
        found = self.outcomes(catalog, label_bitmaps, probes, theta, THRESHOLD / THETA * theta)
        assert len(found) == 126 and found == self.outcomes(catalog, label_bitmaps, probes)

    def test_a_stored_row_is_theta_times_its_pattern(self, trained_system):
        for ball in trained_system.balls.values():
            assert ball.cue_rows().view(np.uint64).tolist() == (THETA * recall_rows(ball)).view(np.uint64).tolist()


class TestAddBall:
    @pytest.mark.parametrize("ball_id, labels, message", [
        ("A", ["x"], "ball 'A' already exists"),
        ("C", [], "ball 'C' needs at least one neuron"),
    ], ids=["existing id", "no labels"])
    def test_refused_without_a_change(self, ball_id, labels, message):
        system = small_system()
        with pytest.raises(ValueError, match=f"^{message}$"):
            system.add_ball(ball_id, labels)
        assert list(system.balls) == ["A", "B"] and system.balls["A"].labels == ["a0", "a1", "a2"]
        assert system.links == {}


class TestResolveBall:
    def test_case_insensitive(self):
        system = small_system()
        assert system.resolve_ball("a") == "A"
        assert system.resolve_ball("A") == "A"
        with pytest.raises(UnknownBall):
            system.resolve_ball("zebra")

    @pytest.mark.parametrize("ids", [("color", "Color"), ("Color", "color")])
    def test_exact_match_wins_and_two_folded_matches_are_ambiguous(self, ids):
        system = MemorySystem(SystemConfig(dim=2))
        for ball_id in ids:
            system.add_ball(ball_id, ["x"])
        assert [system.resolve_ball(b) for b in ids] == list(ids)
        with pytest.raises(UnknownBall, match=r"ambiguous; it matches \['Color', 'color'\]"):
            system.resolve_ball("COLOR")


def reference_associate(system, from_ball, probe, to_ball, threshold=None):
    """`associate` as `cue_response`, `cross_response` and `recall_forward` define it."""
    if system.ball(from_ball) is system.ball(to_ball):
        raise IntraBallLink("cue neurons within one ball are not connected")
    response = system.cue_response(from_ball, probe, threshold)
    if not response.fired:
        raise NoRecognition(f"no neuron in {from_ball!r} reached threshold "
                            f"{response.threshold} (max q = {response.q.max():.6g})")
    k = response.argmax
    cross = system.cross_response(from_ball, k, to_ball, threshold)
    if not cross.fired:
        raise NoAssociation(f"no trained link from {from_ball}:{k} fired in {to_ball!r}")
    return k, cross.argmax, float(cross.q[cross.argmax]), system.recall_forward(to_ball, cross.argmax)


def outcome(call):
    """What a call returned, bit for bit, or the class and message it raised; and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            found = (type(exc), str(exc))
        else:
            if not isinstance(result, tuple):
                result = (result.source_neuron, result.target_neuron, result.q, result.recalled)
            k, l, q, recalled = result
            found = (k, l, bits(q), recalled.view(np.uint64).tolist())
    return found, [(w.category, str(w.message)) for w in caught]


def assert_associates_like_the_reference(system, from_ball, probe, to_ball, threshold=None):
    expected = outcome(lambda: reference_associate(system, from_ball, probe, to_ball, threshold))
    assert outcome(lambda: system.associate(from_ball, probe, to_ball, threshold)) == expected
    return expected[0]


@pytest.fixture
def product_calls(monkeypatch):
    """The probes for which `cue_response` takes the BLAS product, because the popcount form returned None."""
    calls = []
    bitmap_response = memory._bitmap_response

    def counted(index, p):
        q = bitmap_response(index, p)
        if q is None:
            calls.append(p)
        return q

    monkeypatch.setattr(memory, "_bitmap_response", counted)
    return calls


def with_warnings(call):
    """The IEEE bits of each value a call returned, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = [bits(x) for x in call()]
    return values, [(w.category, str(w.message)) for w in caught]


def popcount_q(v, p):
    """Row j's `(level_j * d) * |support_j & probe|`, one IEEE product at a time, a zero q +0.0; None unless it applies.

    It applies where every row of `v` and the probe are one level on their
    support, no row holds a -0.0, the probe's level `d` is finite, every term
    of a nonzero level is a normal float and every q is finite.
    """
    d = np.unique(p[p != 0])
    if len(d) != 1 or not math.isfinite(d[0]):
        return None
    q = []
    for row in v:
        level = np.unique(row[row != 0])
        if len(level) > 1 or np.signbit(row[row == 0]).any():
            return None
        term = float(level[0]) * float(d[0]) if len(level) else 0.0
        if len(level) and not np.finfo(np.float64).tiny <= abs(term) <= np.finfo(np.float64).max:
            return None
        q.append(term * int(np.count_nonzero((row != 0) & (p != 0))) + 0.0)
    return np.array(q) if all(math.isfinite(x) for x in q) else None


@st.composite
def index_cases(draw):
    """A two-ball system whose ball A holds new, duplicate, nested, zero, -0.0 and two-level rows, and a probe and threshold for it."""
    dim = draw(st.integers(1, 70))  # across a 64-bit word boundary
    system = MemorySystem(SystemConfig(dim=dim))
    masks = []
    for ball_id, n in (("A", draw(st.integers(1, 5))), ("B", draw(st.integers(1, 3)))):
        system.add_ball(ball_id, [f"{ball_id}{i}" for i in range(n)])
        for i in range(n):
            kinds = ["new", "duplicate", "nested", "zero", "-0.0", "two-level"] if masks else ["new", "zero", "-0.0"]
            kind = draw(st.sampled_from(kinds))
            if kind == "-0.0":  # a zero row spelled -0.0, as a loaded model may hold one
                system.balls[ball_id].set_cue_row(i, np.full(dim, -0.0))
            if kind in ("zero", "-0.0"):
                continue
            mask = draw(arrays(np.bool_, dim)) if kind in ("new", "two-level") else draw(st.sampled_from(masks)).copy()
            if kind == "nested":
                mask &= draw(arrays(np.bool_, dim))
            row = mask * draw(st.sampled_from([1 / math.sqrt(max(1, mask.sum())), 1.0, 0.37, 3.0]))
            if kind == "two-level" and mask.any():
                row[mask.argmax()] *= 2.0
            for _ in range(draw(st.integers(1, 2))):
                system.store(ball_id, i, row)
            if ball_id == "A":
                masks.append(mask)
    for _ in range(draw(st.integers(0, 3))):
        k, l = draw(st.integers(0, system.balls["A"].n - 1)), draw(st.integers(0, system.balls["B"].n - 1))
        system.learn_cross_weights("A", k, "B", l)
    # every cue row and link rewritten at `scale` times its trained value, as loaded weights of another level are
    scale = draw(st.sampled_from([1.0, 0.01, 300.0, 1e198]))
    if scale != 1.0:
        for ball in system.balls.values():
            for i in range(ball.n):
                ball.set_cue_row(i, scale * ball.cue_row(i))
        for u in system.links.values():
            u *= scale
    mask = draw(st.sampled_from(masks)).copy() if masks and draw(st.booleans()) else draw(arrays(np.bool_, dim))
    mask ^= draw(arrays(np.bool_, dim, elements=st.sampled_from([False] * 7 + [True])))  # flip about 1 in 8
    level = draw(st.sampled_from([1 / math.sqrt(max(1, mask.sum())), 1.0, -0.5, 1e-310, 1e300]))
    probe = mask * level
    kind = draw(st.sampled_from(["bitmap"] * 3 + ["two-level", "non-finite"]))
    if kind == "two-level":
        probe[draw(st.integers(0, dim - 1))] = 2 * level
    elif kind == "non-finite":
        probe[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    with np.errstate(over="ignore", invalid="ignore"):
        q = system.cue_response("A", probe).q
    exact = [float(x) for x in q if 0 < x < math.inf]  # a threshold a q equals exactly
    threshold = draw(st.one_of(st.none(), st.sampled_from(exact) if exact else st.none(),
                               st.floats(1e-3, 1e3), st.sampled_from([THRESHOLD * scale, 5e-324]),
                               st.sampled_from([0.0, -1.0, math.nan, math.inf])))
    return system, probe, threshold


class TestRecognitionIndex:
    """q is the popcount form of the packed cue index where it applies, else the BLAS product; `associate` takes its argmax."""

    @settings(max_examples=300, deadline=None)
    @given(case=index_cases())
    def test_associate_matches_the_reference(self, case):
        system, probe, threshold = case
        assert_associates_like_the_reference(system, "A", probe, "B", threshold)

    @settings(max_examples=300, deadline=None)
    @given(case=index_cases())
    def test_q_is_the_popcount_form_or_else_the_product(self, case):
        system, probe, _ = case
        v = system.balls["A"].cue_rows()
        expected = popcount_q(v, probe)
        found = with_warnings(lambda: system.cue_response("A", probe).q)
        if expected is None:
            assert found == with_warnings(lambda: v @ probe)
        else:
            assert found == ([bits(x) for x in expected], [])
            # the product sums the same terms in its own order, so it lands within rounding of the popcount form
            with np.errstate(all="ignore"):
                product = v @ probe
            assert np.abs(product - expected).max() <= (len(probe) + 3) * 2.0**-52 * np.abs(expected).max()

    def test_the_demo_probes_and_their_noisy_versions_take_the_index(self, label_bitmaps, product_calls):
        system = pair_classic(train_full_system())
        rng = np.random.default_rng(7)
        cases = []
        for (ball, index), pattern in label_bitmaps.items():
            noisy = pattern.bits.copy().reshape(-1)
            noisy[rng.choice(noisy.size, noisy.size // 10, replace=False)] ^= 1
            for bits_ in (pattern.bits, noisy.reshape(pattern.bits.shape)):
                probe = patterns.normalize(patterns.BinaryPattern(bits_))
                target = {"Color": "Style", "Style": "Volume", "Volume": "Color"}[ball]
                cases.append((ball, index, probe, target, outcome(lambda: reference_associate(system, ball, probe, target))))
        for ball, index, probe, target, expected in cases:
            assert outcome(lambda: system.associate(ball, probe, target)) == expected
            assert expected[0][0] == index or expected[0][0] is NoAssociation
        assert len(cases) == 42 and product_calls == []

    def test_thresholds_at_each_q_of_nested_patterns(self):
        # row j answers prefix probe i with (level_j * d_i) * (min(i, j) + 1), which a threshold up to it fires
        dim = 256
        system = MemorySystem(SystemConfig(dim=dim))
        system.add_ball("A", [f"a{c}" for c in range(1, dim + 1)])
        system.add_ball("B", ["b0"])
        prefixes = [np.arange(dim) < c for c in range(1, dim + 1)]
        for i, prefix in enumerate(prefixes):
            system.store("A", i, prefix / math.sqrt(i + 1))
            system.learn_cross_weights("A", i, "B", 0)
        levels = system.balls["A"].cue_rows()[:, 0].tolist()
        for i, prefix in enumerate(prefixes):
            probe = prefix / math.sqrt(i + 1)
            q = system.cue_response("A", probe).q
            assert [bits(x) for x in q] == [bits(level * probe[0] * (min(i, j) + 1)) for j, level in enumerate(levels)]
            for threshold in (np.nextafter(q[i], -math.inf), q[i], np.nextafter(q[i], math.inf)):
                found = assert_associates_like_the_reference(system, "A", probe, "B", threshold)
                assert found[0] in ((i, NoAssociation) if threshold <= q[i] else (NoRecognition,))  # a link is 100

    @pytest.mark.parametrize("level, d, count", [
        (3e4, 1e-315, 2),  # subnormal terms
        (3e4, 1e305, 2),  # terms past the float range
        (1.0, 3.5953862697246315e307, 6),  # normal terms whose q is past the float range, where the product warns
    ], ids=["subnormal", "overflow", "near-overflow"])
    def test_terms_outside_the_normal_range_take_the_product(self, level, d, count, product_calls):
        system = MemorySystem(SystemConfig(dim=64))
        system.add_ball("A", ["a0"]).set_cue_row(0, np.where(np.arange(64) < count, level, 0.0))
        system.add_ball("B", ["b0"])
        system.learn_cross_weights("A", 0, "B", 0)
        probe = np.where(np.arange(64) < count, d, 0.0)
        found = with_warnings(lambda: system.cue_response("A", probe).q)
        assert found == with_warnings(lambda: system.balls["A"].cue_rows() @ probe) and len(product_calls) == 1
        threshold = 5e-324  # the least there is, so even the subnormal q fires
        assert_associates_like_the_reference(system, "A", probe, "B", threshold)

    def test_a_q_at_the_largest_float_is_the_popcount_form(self, product_calls):
        # five terms of a fifth of the largest float: the popcount form rounds to it, where a sum may round past it
        system = MemorySystem(SystemConfig(dim=64))
        system.add_ball("A", ["a0"]).set_cue_row(0, np.where(np.arange(64) < 5, 1.0, 0.0))
        probe = np.where(np.arange(64) < 5, 3.5953862697246315e307, 0.0)
        assert with_warnings(lambda: system.cue_response("A", probe).q) == ([bits(np.finfo(np.float64).max)], [])
        assert product_calls == []

    def test_a_write_after_the_index_exists_is_answered(self):
        system = make_toy_system({"B": [[0.0, 0.0, 0.6, 0.8]]}, dim=4)
        system.add_ball("C", ["c0", "c1"])  # c1 is a zero row until it is stored
        system.store("C", 0, [1.0, 0.0, 0.0, 0.0])
        system.learn_cross_weights("C", 1, "B", 0)
        probe = [1.0, 0.0, 0.0, 0.0]
        assert assert_associates_like_the_reference(system, "C", probe, "B")[0] is NoAssociation  # c0 is unlinked
        assert system.balls["C"].cue_index() is not None
        # c1 then outbids c0: stored from zero it is one level, and a second pattern adds a step of another level
        for row, bitmap in (([2.0, 0.0, 0.0, 0.0], True), ([0.25, -0.25, 0.0, 0.0], False)):
            system.store("C", 1, row)
            assert (system.balls["C"].cue_index() is not None) == bitmap
            assert assert_associates_like_the_reference(system, "C", probe, "B")[:2] == (1, 0)
        loaded = MemorySystem(SystemConfig(dim=4))
        loaded.add_ball("A", ["a0"]).set_cue_row(0, [0.0, 3.0, 3.0, 0.0])
        levels, words = loaded.balls["A"].cue_index()
        assert levels.tolist() == [3.0] and words.tolist() == [[0b0110]]

    def test_a_second_pattern_stored_on_a_neuron_sends_every_associate_to_the_product(self, product_calls):
        # the cue rule adds its step to the neuron's old row, [100, 0, 0, 0] + 40 * [0.6, 0.8, 0, 0]: two levels
        system = make_toy_system({"A": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]], "B": [[0.0, 0.0, 0.6, 0.8]]},
                                 dim=4)
        system.learn_cross_weights("A", 0, "B", 0)
        probe = [1.0, 0.0, 0.0, 0.0]
        assert system.associate("A", probe, "B").source_neuron == 0 and product_calls == []  # taken from the index
        system.store("A", 0, [0.6, 0.8, 0.0, 0.0])
        assert system.balls["A"].cue_row(0).tolist() == [124.0, 32.0, 0.0, 0.0]
        assert system.balls["A"].cue_index() is None
        assert system.associate("A", probe, "B").source_neuron == 0 and len(product_calls) == 1
        assert system.cue_response("A", probe).q.tolist() == [124.0, 0.0]

    def test_a_write_to_a_negative_neuron_after_the_index_exists_is_answered(self, product_calls):
        system = make_toy_system({"B": [[0.0, 0.0, 0.6, 0.8]]}, dim=4)
        ball = system.add_ball("C", ["c0", "c1"])
        ball.set_cue_row(0, [100.0, 0.0, 0.0, 0.0])
        system.learn_cross_weights("C", 1, "B", 0)
        probe = [1.0, 0.0, 0.0, 0.0]
        assert assert_associates_like_the_reference(system, "C", probe, "B")[0] is NoAssociation  # c0 is unlinked
        with pytest.raises(NeuronIndexError, match=r"^neuron -1 out of range for ball 'C' \(n=2\)$"):
            ball.set_cue_row(-1, [200.0, 0.0, 0.0, 0.0])  # refused: it writes nothing and keeps the index
        assert outcome(lambda: system.associate("C", probe, "B"))[0][0] is NoAssociation
        ball.set_cue_row(1, [200.0, 0.0, 0.0, 0.0])  # c1 now outbids c0
        result = system.associate("C", probe, "B")
        assert (result.source_neuron, result.target_neuron) == (1, 0)  # decided from the rebuilt index
        assert assert_associates_like_the_reference(system, "C", probe, "B")[:2] == (1, 0) and product_calls == []

    def test_cue_rows_are_written_only_by_the_writer(self):
        # a packed ball and a dense one both hand out copies, so a write to one does not reach the ball
        for row, dense in (([1.0, 0.0], False), ([1.0, 2.0], True)):
            ball = small_system().balls["A"]
            ball.set_cue_row(0, row)
            ball.cue_rows()[0] = [5.0, 5.0]
            ball.cue_row(0)[:] = 7.0
            assert ball.cue_rows().tolist() == [row, [0.0, 0.0], [0.0, 0.0]] and (ball.cue_index() is None) == dense

    @pytest.mark.parametrize("neuron, row, error, message", [
        (-1, [1.0, 0.0], NeuronIndexError, r"neuron -1 out of range for ball 'A' \(n=3\)"),
        (3, [1.0, 2.0], NeuronIndexError, r"neuron 3 out of range for ball 'A' \(n=3\)"),  # two levels: not dense
        (0, [1.0, 0.0, 0.0, 0.0], DimensionMismatch, "vector has 4 components, system dimension is 2"),
        (0, 1.0, DimensionMismatch, "vector has 1 components, system dimension is 2"),
    ])
    def test_the_writer_refuses_a_bad_neuron_or_row_and_writes_nothing(self, neuron, row, error, message):
        ball = small_system().balls["A"]
        ball.set_cue_row(2, [0.0, 3.0])
        with pytest.raises(error, match=f"^{message}$"):
            ball.set_cue_row(neuron, row)
        levels, words = ball.cue_index()
        assert ball.cue_rows().tolist() == [[0.0, 0.0], [0.0, 0.0], [0.0, 3.0]]
        assert (levels.tolist(), words.tolist()) == ([0.0, 0.0, 3.0], [[0], [0], [0b10]])


# levels a written cue row may hold: of both signs, subnormal, past the normal range, infinite and nan of two payloads
PACKED_LEVELS = st.sampled_from([1.0, -0.5, 100.0 / 3, 5e-324, -2.2250738585072014e-308, 1e308, math.inf, -math.inf,
                                 math.nan, np.array(0xFFF8000000000001, np.uint64).view(np.float64).item()])


def one_level(row) -> bool:
    """No -0.0 component, and at most one bit pattern among the nonzero ones."""
    return not np.signbit(row[row == 0]).any() and len(np.unique(row.view(np.uint64)[row != 0])) <= 1


@st.composite
def row_writes(draw):
    """A dimension, a ball size, a probe, and writes of one-level, zero, -0.0 and two-level recall and cue rows."""
    dim, n = draw(st.integers(1, 70)), draw(st.integers(1, 4))
    writes = []
    for _ in range(draw(st.integers(1, 8))):
        row = np.where(draw(arrays(np.bool_, dim)), draw(PACKED_LEVELS), 0.0)
        kind = draw(st.sampled_from(["one level", "zero", "-0.0", "two-level"]))
        if kind == "zero":
            row[:] = 0.0
        elif kind != "one level":
            row[draw(st.integers(0, dim - 1))] = -0.0 if kind == "-0.0" else draw(PACKED_LEVELS)
        writes.append((draw(st.sampled_from(["recall", "cue"])), draw(st.integers(0, n - 1)), row))
    probe = np.where(draw(arrays(np.bool_, dim)), draw(st.sampled_from([1.0, -3.0, 1e-310, 1e300])), 0.0)
    return dim, n, probe, writes


class TestPackedRows:
    """A ball holds each kind of row as levels and packed supports until a row of that kind that is not one level is written."""

    @settings(max_examples=300, deadline=None)
    @given(case=row_writes())
    def test_rows_read_back_bit_for_bit_and_a_dense_ball_takes_the_product(self, case):
        dim, n, probe, writes = case
        system = MemorySystem(SystemConfig(dim=dim))
        ball = system.add_ball("A", [f"a{i}" for i in range(n)])
        expected, dense = {"recall": np.zeros((n, dim)), "cue": np.zeros((n, dim))}, {"recall": False, "cue": False}
        for kind, neuron, row in writes:
            (ball.set_recall_row if kind == "recall" else ball.set_cue_row)(neuron, row)
            expected[kind][neuron] = row
            dense[kind] = dense[kind] or not one_level(row)
            assert [bits(x) for x in ball.cue_row(neuron)] == [bits(x) for x in expected["cue"][neuron]]
            assert ball.cue_rows().view(np.uint64).tolist() == expected["cue"].view(np.uint64).tolist()
            for i in range(n):
                for read in (ball.recall_row(i), system.recall_forward("A", i)):
                    assert read.view(np.uint64).tolist() == expected["recall"][i].view(np.uint64).tolist()
            assert (ball.cue_index() is None, ball._recall.dense is not None) == (dense["cue"], dense["recall"])
            for rows, name in ((ball._cue, "cue"), (ball._recall, "recall")):
                if not dense[name]:  # a zero row is packed at level +0.0, whatever was written before it
                    zero = ~expected[name].view(np.uint64).any(axis=1)
                    assert rows.levels.view(np.uint64)[zero].tolist() == [0] * int(zero.sum())
            if dense["cue"]:
                assert with_warnings(lambda: system.cue_response("A", probe).q) == with_warnings(
                    lambda: ball.cue_rows() @ probe)

    def test_a_ball_of_bitmaps_holds_no_dense_cue_array(self):
        system = MemorySystem()
        ball = system.add_ball("A", [f"a{i}" for i in range(64)])
        rng = np.random.default_rng(64)
        for i in range(64):
            system.store("A", i, patterns.normalize(patterns.BinaryPattern(rng.integers(0, 2, (116, 116), np.uint8))))
        held = list(held_arrays(ball))
        assert ball.cue_index() is not None and max(a.size for a in held) < ball.n * ball.dim
        assert sum(a.nbytes for a in held) < 400_000  # where a dense (64, 13456) array of either kind takes 6.9 MB

    def test_a_load_packs_the_rows_a_dense_ball_saved(self):
        system = MemorySystem(SystemConfig(dim=4))
        ball = system.add_ball("A", ["a0", "a1"])
        for neuron, row in ((0, [1.0, 2.0, 0.0, 0.0]), (0, [3.0, 3.0, 0.0, 0.0]), (1, [0.0, 0.0, 0.5, 0.0])):
            ball.set_cue_row(neuron, row)
        loaded = store.loads(store.dumps(system)).balls["A"]
        assert ball.cue_index() is None and loaded.cue_index() is not None
        assert loaded.cue_rows().tolist() == ball.cue_rows().tolist() == [[3.0, 3.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0]]
