"""Checks that the benchmark applies to the program's outputs.

Everything here is computed apart from `cbrn`: plain PBM parsing, the
overlap oracle that predicts every response q from integer popcounts, and a
parser of the CBRN1 model grammar in docs/model-format.md.  Each check raises
`CheckFailed` with the first mismatch it finds.
"""

from __future__ import annotations

import math

import numpy as np

import qrread

THETA = 100.0
THRESHOLD = 72.0
Q_TOLERANCE = 1e-9


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- bitmaps -------------------------------------------------------------------


def parse_pbm(text: str) -> np.ndarray:
    """Plain PBM (P1) to a 2-D uint8 array; comments and any whitespace allowed."""
    tokens = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    require(len(tokens) >= 3 and tokens[0] == "P1", "PBM does not start with P1 and a size")
    width, height = int(tokens[1]), int(tokens[2])
    pixels = tokens[3:]
    require(len(pixels) == width * height, f"PBM has {len(pixels)} pixels, expected {width * height}")
    require(set(pixels) <= {"0", "1"}, "PBM pixel that is not 0 or 1")
    return np.array([p == "1" for p in pixels], dtype=np.uint8).reshape(height, width)


def read_label(pixels, expected: str) -> int:
    """Decode a rendered symbol with the independent reader; returns its mask."""
    try:
        label, mask = qrread.read_bitmap(pixels)
    except qrread.QrReadError as exc:
        raise CheckFailed(f"symbol for {expected!r} does not decode: {exc}") from None
    require(label == expected, f"symbol decodes to {label!r}, expected {expected!r}")
    return mask


def unit_vector(bits) -> np.ndarray:
    """bits / sqrt(popcount), the presentation vector the memory stores."""
    flat = np.asarray(bits, dtype=np.uint8).reshape(-1)
    dark = int(np.count_nonzero(flat))
    require(dark > 0, "bitmap has no dark pixel")
    return np.where(flat == 1, 1.0 / math.sqrt(dark), 0.0)


def bitmap_of_row(row: np.ndarray) -> np.ndarray:
    """Support of a stored weight row, which must be one positive level and zeros."""
    row = np.asarray(row, dtype=np.float64)
    support = row > 0
    require(bool(support.any()), "weight row has no positive entry")
    require(bool(np.all(row[~support] == 0.0)), "weight row has negative entries")
    return support.astype(np.uint8)


# -- overlap oracle --------------------------------------------------------------


class OverlapOracle:
    """Predicts cue responses q_j = theta |A_j & A| / sqrt(|A_j| |A|) by popcount."""

    def __init__(self, stored_bitmaps, theta: float = THETA) -> None:
        flat = [np.asarray(b, dtype=np.uint8).reshape(-1) for b in stored_bitmaps]
        self.packed = np.packbits(np.stack(flat), axis=1)
        self.counts = np.bitwise_count(self.packed).sum(axis=1).astype(np.int64)
        self.theta = theta

    def q(self, probe_bits) -> np.ndarray:
        probe = np.packbits(np.asarray(probe_bits, dtype=np.uint8).reshape(-1))
        inter = np.bitwise_count(self.packed & probe).sum(axis=1).astype(np.int64)
        dark = int(np.bitwise_count(probe).sum())
        return np.array(
            [self.theta * int(i) / math.sqrt(int(c) * dark) for i, c in zip(inter, self.counts)]
        )

    def argmax(self, probe_bits) -> int:
        """Winner by exact integer comparison of i^2/c (ties to the lower index)."""
        probe = np.packbits(np.asarray(probe_bits, dtype=np.uint8).reshape(-1))
        inter = np.bitwise_count(self.packed & probe).sum(axis=1).astype(np.int64)
        best = 0
        for j in range(1, len(inter)):
            # compare inter_j^2 / c_j > inter_best^2 / c_best without rounding
            if int(inter[j]) ** 2 * int(self.counts[best]) > int(inter[best]) ** 2 * int(self.counts[j]):
                best = j
        return best


def check_q(got, want, what: str) -> None:
    got = np.asarray(got, dtype=np.float64)
    require(got.shape == want.shape, f"{what}: {got.size} responses, expected {want.size}")
    err = np.abs(got - want)
    worst = int(np.argmax(err)) if err.size else 0
    require(
        bool(np.all(err <= Q_TOLERANCE)),
        f"{what}: q[{worst}] = {got[worst]!r}, oracle {want[worst]!r}",
    )


def check_fired(q, fired, what: str, threshold: float = THRESHOLD) -> None:
    want = [int(i) for i in np.flatnonzero(np.asarray(q) >= threshold)]
    require(list(fired) == want, f"{what}: fired {list(fired)}, expected {want}")


# -- CBRN1 model files ---------------------------------------------------------------

_HEADER = ("dim", "theta", "threshold", "eps_w", "eps_v", "lambda_cb", "epochs", "normalized")


class Model:
    """A parsed CBRN1 file: header values, ball sections and link records."""

    def __init__(self) -> None:
        self.header: dict[str, str] = {}
        self.balls: list[tuple[str, list[str], np.ndarray, np.ndarray]] = []
        self.links: list[tuple[str, int, str, int, float]] = []


def _row(body: str, kind: str, index: int, dim: int) -> np.ndarray:
    parts = body.split(" ")
    require(parts[0] == kind and parts[1] == str(index), f"expected '{kind} {index}', got {body[:20]!r}")
    require(len(parts) == dim + 2, f"{kind} row {index} has {len(parts) - 2} values, dim is {dim}")
    values = np.fromiter(map(float, parts[2:]), dtype=np.float64, count=dim)
    require(bool(np.all(np.isfinite(values))), f"{kind} row {index} has a non-finite value")
    return values


def parse_model(text: str) -> Model:
    """Strict parse of the grammar in docs/model-format.md as the program writes it."""
    require(text.endswith("\n"), "model file does not end with a newline")
    lines = text[:-1].split("\n")
    require(lines[0] == "CBRN1", f"magic is {lines[0][:20]!r}")
    model = Model()
    for key, line in zip(_HEADER, lines[1:9]):
        name, _, value = line.partition(" ")
        require(name == key, f"header key {name!r}, expected {key!r}")
        model.header[key] = value
    dim = int(model.header["dim"])
    i = 9
    while lines[i].startswith("ball "):
        _, ball_id, n_text = lines[i].split(" ")
        n = int(n_text)
        labels = []
        for k in range(n):
            kind, index, label = lines[i + 1 + k].split(" ", 2)
            require(kind == "label" and index == str(k), f"ball {ball_id}: bad label line {k}")
            labels.append(label)
        w = np.stack([_row(lines[i + 1 + n + k], "w", k, dim) for k in range(n)])
        v = np.stack([_row(lines[i + 1 + 2 * n + k], "v", k, dim) for k in range(n)])
        model.balls.append((ball_id, labels, w, v))
        i += 1 + 3 * n
    while lines[i].startswith("link "):
        _, a, k, b, l, u = lines[i].split(" ")
        model.links.append((a, int(k), b, int(l), float(u)))
        i += 1
    require(lines[i] == "end" and i == len(lines) - 1, f"line {i + 1}: expected the final 'end'")
    require(model.links == sorted(model.links), "link records are not in canonical order")
    return model


def check_model(model: Model, catalog, bitmaps: dict[str, np.ndarray], theta: float = THETA) -> None:
    """Ball sections match the catalog; w rows are the labels' unit vectors, v = theta w.

    `catalog` is a list of (ball id, labels); `bitmaps` maps a label to the
    symbol bitmap the benchmark read back from the program's `encode` output.
    """
    require(float(model.header["theta"]) == theta, f"theta is {model.header['theta']}")
    require(
        [(b, labels) for b, labels, _, _ in model.balls] == [(b, list(l)) for b, l in catalog],
        "ball sections do not match the catalog",
    )
    for ball_id, labels, w, v in model.balls:
        for k, label in enumerate(labels):
            read_label(bitmap_of_row(w[k]).reshape(116, 116), label)
            require(
                np.array_equal(w[k], unit_vector(bitmaps[label])),
                f"{ball_id} w row {k} is not bits/sqrt(popcount) of {label!r}",
            )
            require(
                bool(np.all(np.abs(v[k] - theta * w[k]) <= 1e-9)),
                f"{ball_id} v row {k} is not theta times its w row",
            )


def check_links(model: Model, pairs, theta: float = THETA) -> None:
    """Exactly one link record per direction of each pair, each at theta."""
    want = sorted(
        {(a, k, b, l, theta) for a, k, b, l in pairs} | {(b, l, a, k, theta) for a, k, b, l in pairs}
    )
    require(model.links == want, f"links {model.links} differ from {want}")


def check_link_grid(rows, ball_sizes: dict[str, int], pairs, theta: float = THETA) -> None:
    """`report --figure 4` CSV rows: theta on each linked direction, 0 elsewhere."""
    linked = {(a, k, b, l) for a, k, b, l in pairs} | {(b, l, a, k) for a, k, b, l in pairs}
    expect = [
        (a, k, b, l, theta if (a, k, b, l) in linked else 0.0)
        for a in ball_sizes
        for b in ball_sizes
        if a != b
        for k in range(ball_sizes[a])
        for l in range(ball_sizes[b])
    ]
    got = [(a, int(k), b, int(l), float(q)) for a, k, b, l, q in rows]
    require(got == expect, "figure 4 grid differs from theta on the links and 0 elsewhere")
