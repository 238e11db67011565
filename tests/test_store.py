import numpy as np
import pytest

from cbrn import store
from cbrn.errors import (
    DimensionMismatch,
    ModelFormatError,
    UnsupportedVersion,
)
from cbrn.memory import MemorySystem, SystemConfig
from conftest import CLASSIC_PAIRS, make_toy_system, pair_classic, train_full_system


@pytest.fixture(scope="module")
def demo_text():
    return store.dumps(pair_classic(train_full_system()))


def toy():
    rng = np.random.default_rng(11)
    stored = {
        "A": [v / np.linalg.norm(v) for v in rng.random((3, 6))],
        "B": [v / np.linalg.norm(v) for v in rng.random((2, 6))],
    }
    system = make_toy_system(stored, dim=6)
    system.learn_cross_weights("A", 1, "B", 0)
    return system


class TestRoundTrip:
    def test_weights_bit_exact(self):
        system = toy()
        loaded = store.loads(store.dumps(system))
        for ball_id, ball in system.balls.items():
            np.testing.assert_array_equal(loaded.balls[ball_id].v, ball.v)
            np.testing.assert_array_equal(loaded.balls[ball_id].w, ball.w)
            assert loaded.balls[ball_id].labels == ball.labels
        assert loaded.links.keys() == system.links.keys()
        for pair, weights in system.links.items():
            np.testing.assert_array_equal(loaded.links[pair], weights)
        assert loaded.config == system.config

    def test_resave_is_byte_identical(self, tmp_path):
        system = toy()
        first = tmp_path / "a.cbrn"
        second = tmp_path / "b.cbrn"
        store.save(system, first)
        store.save(store.load(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_same_system_serializes_identically(self):
        assert store.dumps(toy()) == store.dumps(toy())

    def test_awkward_floats_survive(self):
        system = MemorySystem(SystemConfig(dim=4))
        system.add_ball("A", ["x"])
        system.balls["A"].w[0] = [1 / 3, 1e-300, -0.0, 2.2250738585072014e-308]
        system.balls["A"].v[0] = [np.pi, -np.e, 1e300, 5e-324]
        loaded = store.loads(store.dumps(system))
        np.testing.assert_array_equal(loaded.balls["A"].w, system.balls["A"].w)
        np.testing.assert_array_equal(loaded.balls["A"].v, system.balls["A"].v)

    def test_link_trained_to_zero_is_not_saved(self):
        # lambda_cb 2 over two epochs steps 0 -> 200 -> 0
        system = MemorySystem(SystemConfig(dim=2, lambda_cb=2.0, epochs=2))
        system.add_ball("A", ["a"])
        system.add_ball("B", ["b"])
        forward, _ = system.learn_cross_weights("A", 0, "B", 0)
        assert forward.errors == (5000.0, 5000.0) and forward.final_error == 5000.0
        assert system.links["A", "B"][0, 0] == 0.0 and not system.trained_links()
        text = store.dumps(system)
        assert "link " not in text
        assert store.dumps(store.loads(text)) == text

    def test_labels_with_spaces(self):
        system = MemorySystem(SystemConfig(dim=2))
        system.add_ball("A", ["extra large", "two  spaces"])
        loaded = store.loads(store.dumps(system))
        assert loaded.balls["A"].labels == ["extra large", "two  spaces"]


class TestDemoFileShape:
    def test_section_counts(self, demo_text):
        lines = demo_text.splitlines()
        assert lines[0] == "CBRN1"
        assert lines[-1] == "end"
        balls = [l for l in lines if l.startswith("ball ")]
        assert [b.split() for b in balls] == [
            ["ball", "Color", "7"],
            ["ball", "Style", "7"],
            ["ball", "Volume", "7"],
        ]
        assert sum(1 for l in lines if l.startswith("w ")) == 21
        assert sum(1 for l in lines if l.startswith("v ")) == 21
        links = [l for l in lines if l.startswith("link ")]
        assert len(links) == 6  # three pairs, both directions

    def test_links_cover_classic_pairs(self, demo_text):
        links = {tuple(l.split()[1:5]) for l in demo_text.splitlines() if l.startswith("link ")}
        for a, k, b, l in CLASSIC_PAIRS:
            assert (a, str(k), b, str(l)) in links
            assert (b, str(l), a, str(k)) in links

    def test_loaded_demo_behaves(self, demo_text):
        loaded = store.loads(demo_text)
        probe = loaded.recall_forward("Color", 0)
        result = loaded.associate("Color", probe, "Style")
        assert (result.source_neuron, result.target_neuron) == (0, 3)


class TestRejects:
    def test_bad_magic(self):
        with pytest.raises(UnsupportedVersion):
            store.loads("CBRN9\ndim 4\n")

    def test_empty(self):
        with pytest.raises(UnsupportedVersion):
            store.loads("")

    def test_missing_end(self):
        text = store.dumps(toy())
        with pytest.raises(ModelFormatError, match="end"):
            store.loads(text.rsplit("end", 1)[0])

    def test_truncated_ball_section(self):
        text = store.dumps(toy())
        lines = [l for l in text.splitlines() if not l.startswith("v 1")]
        with pytest.raises(ModelFormatError):
            store.loads("\n".join(lines) + "\n")

    def test_row_length_mismatch(self):
        text = store.dumps(toy())
        lines = text.splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("w 0"))
        lines[idx] = lines[idx] + " 0.5"
        with pytest.raises(DimensionMismatch):
            store.loads("\n".join(lines) + "\n")

    @pytest.mark.parametrize("kind", ["w", "v"])
    def test_non_finite_row_value(self, kind):
        text = store.dumps(toy())
        lines = text.splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith(f"{kind} 0 "))
        values = lines[idx].split()[2:]
        lines[idx] = " ".join([kind, "0", "nan", "inf", *values[2:]])
        with pytest.raises(ModelFormatError, match="non-finite"):
            store.loads("\n".join(lines) + "\n")

    def test_non_finite_link_weight(self):
        text = store.dumps(toy())
        lines = text.splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("link "))
        lines[idx] = lines[idx].rsplit(" ", 1)[0] + " -inf"
        with pytest.raises(ModelFormatError, match="not finite"):
            store.loads("\n".join(lines) + "\n")

    def test_huge_dim_refused_before_allocation(self):
        # (n, dim) float arrays for this dim would need petabytes: the
        # mismatch with the first w row must be found before any is made
        text = store.dumps(toy()).replace("dim 6\n", "dim 1000000000000000\n")
        with pytest.raises(DimensionMismatch, match="header dim is 1000000000000000"):
            store.loads(text)

    def test_link_to_unknown_ball(self):
        text = store.dumps(toy())
        lines = text.splitlines()
        lines.insert(-1, "link A 0 Zebra 0 100.0")
        with pytest.raises(ModelFormatError, match="unknown ball"):
            store.loads("\n".join(lines) + "\n")

    def test_duplicate_link_rejected(self):
        text = store.dumps(toy())
        lines = text.splitlines()
        record = next(l for l in lines if l.startswith("link "))
        lines.insert(-1, record)
        with pytest.raises(ModelFormatError, match="duplicate link"):
            store.loads("\n".join(lines) + "\n")

    @pytest.mark.parametrize("weight", ["0.0", "-0.0", "0"])
    def test_zero_link_weight_rejected(self, weight):
        # a zero weight is no link, and dumps never writes one
        text = store.dumps(toy())
        lines = text.splitlines()
        lines.insert(-1, f"link A 0 B 1 {weight}")
        with pytest.raises(ModelFormatError, match="zero link weight"):
            store.loads("\n".join(lines) + "\n")

    def test_intra_ball_link_rejected(self):
        text = store.dumps(toy())
        lines = text.splitlines()
        lines.insert(-1, "link A 0 A 1 100.0")
        with pytest.raises(ModelFormatError):
            store.loads("\n".join(lines) + "\n")

    def test_content_after_end(self):
        with pytest.raises(ModelFormatError, match="after end"):
            store.loads(store.dumps(toy()) + "ball C 1\n")

    def test_inconsistent_header_values(self):
        text = store.dumps(toy()).replace("theta 100.0", "theta 50.0")
        with pytest.raises(ModelFormatError, match="header"):
            store.loads(text)  # theta must exceed the threshold

    def test_comments_and_blanks_tolerated(self):
        text = store.dumps(toy())
        lines = text.splitlines()
        lines.insert(1, "# a comment")
        lines.insert(4, "")
        loaded = store.loads("\n".join(lines) + "\n")
        assert set(loaded.balls) == {"A", "B"}
