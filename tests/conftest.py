import numpy as np
import pytest

from cbrn import patterns, qr
from cbrn.memory import MemorySystem, SystemConfig

CLASSIC_PAIRS = (("Color", 0, "Style", 3), ("Style", 3, "Volume", 6), ("Volume", 6, "Color", 1))


def train_full_system() -> MemorySystem:
    """Fresh system holding all 21 bundled catalog patterns."""
    catalog = patterns.default_catalog()
    system = MemorySystem.from_catalog(catalog)
    for group in catalog:
        for index, label in enumerate(group.labels):
            system.store(group.name, index, patterns.normalize(qr.render(qr.encode_label(label))))
    return system


def pair_classic(system: MemorySystem) -> MemorySystem:
    for ball_a, k, ball_b, l in CLASSIC_PAIRS:
        system.learn_cross_weights(ball_a, k, ball_b, l)
    return system


def recall_rows(ball) -> np.ndarray:
    """Every recall row of a ball as one `(n, dim)` array."""
    return np.array([ball.recall_row(i) for i in range(ball.n)])


def held_arrays(holder):
    """The NumPy arrays an object holds in its attributes, and in theirs."""
    for value in vars(holder).values():
        if isinstance(value, np.ndarray):
            yield value
        elif hasattr(value, "__dict__"):
            yield from held_arrays(value)


def make_toy_system(stored: dict[str, list[np.ndarray]], dim: int) -> MemorySystem:
    """System over small vectors: one ball per key, one neuron per vector."""
    system = MemorySystem(SystemConfig(dim=dim))
    for ball_id, vectors in stored.items():
        system.add_ball(ball_id, [f"{ball_id}-{i}" for i in range(len(vectors))])
        for i, vec in enumerate(vectors):
            system.store(ball_id, i, vec)
    return system


@pytest.fixture(scope="session")
def catalog():
    return patterns.default_catalog()


@pytest.fixture(scope="session")
def label_bitmaps(catalog):
    """Rendered QR bitmap for every bundled label."""
    return {
        (group.name, index): qr.render(qr.encode_label(label))
        for group in catalog
        for index, label in enumerate(group.labels)
    }


@pytest.fixture(scope="session")
def trained_system():
    """Trained, read-only: tests must not mutate this instance."""
    return train_full_system()


@pytest.fixture(scope="session")
def paired_system():
    """Trained plus the classic cross pairs; read-only."""
    return pair_classic(train_full_system())
