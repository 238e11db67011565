"""One-shot delta-rule learning and recall between Cue Balls and a Recall Net.

Each Cue Ball (`Ball`) is a group of cue neurons, one per stored pattern,
with two weight rows per neuron.  Recall weights `w` (cue to recall) hold
the presentation vector a neuron replays into the Recall Net; cue weights
(recall to cue, a model file's `v` rows) drive the matching neuron's
pre-threshold output to the learning value `THETA`, and a neuron fires at
`THRESHOLD` unless a query sets its own threshold; both are the model's
constants.  Cross weights couple cue neurons across balls, one dense array
per ordered ball pair, so a recognized pattern in one ball recalls its
linked pattern in another.  A pair's array is made when the pair is first
trained or loaded; until then the pair reads as all zeros.

All three learning rules are one Widrow-Hoff step at rate 1,
`delta = (target - output) * input`: the recall rule targets the pattern
with input 1, the cue rule targets `THETA` with the recalled pattern as
input, and the cross rule targets `THETA` with input 1.  With input 1 the step
is `target - weight`, so from any weight the new weight is the target itself:
the recall and cross rules store their targets in a single update, and a
repeat is an exact no-op.  The cue rule adds its step and lands within
rounding of its target: a repeat on the bundled labels' QR rows moves each
cue row by 5.2e-16 to 3.0e-15 and changes no fired set.
A `store` onto a blank neuron, both of whose rows are packed at +0.0 as
`add_ball` leaves them, takes the two steps' closed form, bit for bit: the
recall error is the target, and a one-level target `d` gives the cue row
level `THETA * d + 0.0` on its support, from the level alone, with no product.
`MemorySystem._delta_rule` is the step, called once per rule with its
weight, target and input; it reports the error it found before the step,
never a residue after it.  A row step goes through two rows of its
caller's own: the recall rule's current row, which takes the error, and a
spare row, or the cue rule's current row, which takes the sum, and its
input, which takes the step.  A float error (the cue and cross rules) is
squared as a `np.float64`, the same IEEE product as `np.square`, so an
overflow still warns.

`cue_response` reads a ball as a binary associative memory does
(Willshaw et al., 1969; Palm, 1980): a stored cue row is one level on its
pattern's support, so the response of a row to a probe that is one level
`d` on its own support is `(level * d) * popcount(support & probe)`, two
correctly rounded products around an exact count, the same on every CPU
and BLAS kernel.  A ball stores its recall rows and its cue rows as these
levels and packed supports (`Ball.cue_index` for the cue rows), 3.4 KB a
neuron at the default dimension against 211 KB for two dense rows.  Where
that form does not apply (a row or a probe of two levels, a non-finite or
all-zero probe, a subnormal or overflowing term or q), q is the BLAS
product of the dense cue rows and the probe, which a packed ball builds for
the query (3.8 ms at 256 neurons, 1 ms of it the product).  A second `store` of a different pattern
onto a used neuron adds a step of another level to its cue row, which
turns that ball's cue rows dense for good, as a recall target that is not
one level does its recall rows.

A system instance is single-writer while learning; `Ball.set_recall_row`
and `Ball.set_cue_row` are the one writers of a ball's rows.  Response and
recall calls never mutate state, so a trained system may be queried
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IntraBallLink,
    NeuronIndexError,
    NoAssociation,
    NoRecognition,
    NonFiniteWeight,
    UnknownBall,
)


THETA = 100.0  # learning value: the pre-threshold output one learning step drives a trained neuron to
THRESHOLD = 72.0  # firing threshold D of the cue step function, where a query sets none


@dataclass
class SystemConfig:
    """The Recall Net dimension shared by every ball of a system; `store` writes it as the CBRN1 header's first line."""

    dim: int = 13_456

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")


_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max
_NEGATIVE_ZERO = np.float64(-0.0).view(np.uint64)


def _packed(mask: np.ndarray) -> np.ndarray:
    """The last axis of a boolean array as uint64 words, lowest bit first, zero-padded."""
    packed = np.packbits(mask, axis=-1, bitorder="little")
    out = np.zeros(mask.shape[:-1] + (-(-packed.shape[-1] // 8) * 8,), np.uint8)
    out[..., :packed.shape[-1]] = packed
    return out.view(np.uint64)


def _unpacked(words: np.ndarray, level_bits, dim: int) -> np.ndarray:
    """Rows of `dim` values, each its level on its packed support, built by bit pattern so a zero is +0.0 at any level."""
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=dim, bitorder="little").astype(np.uint64)
    bits *= level_bits
    return bits.view(np.float64)


def _check_neuron(ball: Ball, neuron: int) -> None:
    if not 0 <= neuron < ball.n:
        raise NeuronIndexError(f"neuron {neuron} out of range for ball {ball.id!r} (n={ball.n})")


def _check_vector(vector, dim: int) -> np.ndarray:
    v = np.asarray(vector, dtype=np.float64).reshape(-1)
    if v.size != dim:
        raise DimensionMismatch(f"vector has {v.size} components, system dimension is {dim}")
    return v


def _bitmap_response(index: tuple[np.ndarray, np.ndarray] | None, p: np.ndarray) -> np.ndarray | None:
    """`(levels * d) * popcount(words & probe)` per row of a cue index, +0.0 for a zero q as in the product.

    None without an index, and None unless the probe is one finite level
    `d` on its support, every nonzero level's term is normal and q finite.
    """
    if index is None:
        return None
    nonzero = p != 0
    d = float(p[nonzero.argmax()])
    if d == 0.0 or not math.isfinite(d) or not np.array_equal(p == d, nonzero):
        return None
    levels, words = index
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed term or q returns None below
        terms = levels * d
        q = terms * np.bitwise_count(words & _packed(nonzero)).sum(axis=1, dtype=np.uint32) + 0.0
    size = np.abs(terms)
    if not np.array_equal((size >= _TINY) & (size <= _HUGE), levels != 0) or not np.isfinite(q).all():
        return None
    return q


class _Rows:
    """n rows of `dim` values, each a level on a packed support while every row written is one level, then dense."""

    def __init__(self, n: int, dim: int) -> None:
        self.dim = dim
        self.levels = np.zeros(n)
        self.words = np.zeros((n, -(-dim // 64)), np.uint64)
        self.dense: np.ndarray | None = None  # every row, once a row that is not one level is written

    def write(self, i: int, row: np.ndarray) -> None:
        """Write row `i` from a checked vector."""
        if self.dense is None:
            support, bits = row != 0, row.view(np.uint64)
            level_bits = bits[support.argmax()]  # the first nonzero value's, or component 0's in a row of zeros
            if level_bits:
                np.equal(bits, level_bits, out=support)
            # one level: each component's bits are +0.0's or the level's, and the level is not -0.0's
            if level_bits != _NEGATIVE_ZERO and np.count_nonzero(support) == np.count_nonzero(bits):
                self.levels.view(np.uint64)[i] = level_bits
                self.words[i].view(np.uint8)[:-(-self.dim // 8)] = np.packbits(support, bitorder="little")
                return
            self.dense = self.read_all()
            self.levels = self.words = None
        self.dense[i] = row

    def read(self, i: int) -> np.ndarray:
        """Row `i` as a fresh dense array."""
        if self.dense is not None:
            return self.dense[i].copy()
        if not self.levels[i]:
            return np.zeros(self.dim)
        return _unpacked(self.words[i], self.levels.view(np.uint64)[i], self.dim)

    def read_all(self) -> np.ndarray:
        """Every row as a fresh C-contiguous `(n, dim)` array."""
        if self.dense is not None:
            return self.dense.copy()
        return _unpacked(self.words, self.levels.view(np.uint64)[:, None], self.dim)


class Ball:
    """One Cue Ball: a cue neuron per stored pattern and its two weight rows.

    Recall row i (a model file's `w` row) is the pattern neuron i replays
    into the Recall Net; cue row i (its `v` row) maps that pattern onto
    neuron i's pre-threshold output.  Each kind of row is packed while every
    row of that kind written is one level, then dense for good.
    """

    def __init__(self, ball_id: str, labels, dim: int) -> None:
        self.id = ball_id
        self.labels = list(labels)
        self.n = len(self.labels)
        self.dim = dim
        self._recall, self._cue = _Rows(self.n, dim), _Rows(self.n, dim)

    def set_recall_row(self, neuron: int, row) -> None:
        """Write recall row `neuron`, checked as every writer checks; the one writer of the recall rows."""
        _check_neuron(self, neuron)
        self._recall.write(neuron, _check_vector(row, self.dim))

    def recall_row(self, neuron: int) -> np.ndarray:
        """Recall row `neuron` as a fresh dense array."""
        _check_neuron(self, neuron)
        return self._recall.read(neuron)

    def set_cue_row(self, neuron: int, row) -> None:
        """Write cue row `neuron`, checked as every writer checks; the one writer of the cue rows."""
        _check_neuron(self, neuron)
        self._cue.write(neuron, _check_vector(row, self.dim))

    def cue_row(self, neuron: int) -> np.ndarray:
        """Cue row `neuron` as a fresh dense array."""
        _check_neuron(self, neuron)
        return self._cue.read(neuron)

    def cue_rows(self) -> np.ndarray:
        """Every cue row as a fresh C-contiguous `(n, dim)` array."""
        return self._cue.read_all()

    def cue_product(self, p: np.ndarray) -> np.ndarray:
        """The BLAS product `cue_rows() @ p`, on a dense ball's own rows."""
        return (self._cue.read_all() if self._cue.dense is None else self._cue.dense) @ p

    def cue_index(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The ball's storage (levels, words): cue row i is `levels[i]` on the support in `words[i]`; None if dense."""
        return None if self._cue.dense is not None else (self._cue.levels, self._cue.words)


@dataclass(frozen=True)
class CueResponse:
    """Pre-threshold outputs of one ball plus the thresholding outcome."""

    q: np.ndarray
    fired: tuple[int, ...]  # indices with q >= threshold, ascending
    argmax: int  # lowest index attaining the maximum
    threshold: float


@dataclass(frozen=True)
class UpdateReport:
    """What one learn call found before its step."""

    error: float  # half squared error
    max_delta: float  # largest update term of the step


@dataclass(frozen=True)
class AssociationResult:
    """Outcome of a cross-ball recall."""

    source_neuron: int
    target_neuron: int
    q: float  # target neuron's pre-threshold response
    recalled: np.ndarray


def _half_square(err, out=None) -> float:
    """Half the squared error, a float or a row, whose squares go to `out` if given; summed in `ndarray.sum`'s order."""
    if isinstance(err, float):
        err = np.float64(err)  # whose product warns on overflow, as np.square does
        return 0.5 * float(err * err)
    return 0.5 * float(np.add.reduce(np.square(err, out=out), axis=None))


class MemorySystem:
    """A set of Cue Balls sharing one Recall Net dimension, plus cross links."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        self.balls: dict[str, Ball] = {}
        # links[a, b][k, l]: cross weight from neuron k of ball a to neuron l
        # of ball b; one dense array per ordered pair of distinct balls that
        # has been trained or loaded.  A missing pair or a zero entry is no link
        self.links: dict[tuple[str, str], np.ndarray] = {}

    @classmethod
    def from_catalog(cls, catalog, config: SystemConfig | None = None):
        """A system with one empty ball per group of an `AttributeCatalog`, in catalog order."""
        system = cls(config)
        for group in catalog:
            system.add_ball(group.name, group.labels)
        return system

    def add_ball(self, ball_id: str, labels) -> Ball:
        if ball_id in self.balls:
            raise ValueError(f"ball {ball_id!r} already exists")
        labels = list(labels)
        if not labels:
            raise ValueError(f"ball {ball_id!r} needs at least one neuron")
        ball = Ball(ball_id, labels, self.config.dim)
        self.balls[ball_id] = ball
        return ball

    def ball(self, ball_id: str) -> Ball:
        try:
            return self.balls[ball_id]
        except KeyError:
            raise UnknownBall(f"unknown ball {ball_id!r}; have {sorted(self.balls)}") from None

    def resolve_ball(self, name: str) -> str:
        """Map a user-supplied ball name to a stored id.

        An exact match wins; otherwise the name must match exactly one id
        case-insensitively.
        """
        if name in self.balls:
            return name
        matches = [bid for bid in self.balls if bid.casefold() == name.casefold()]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise UnknownBall(f"ball name {name!r} is ambiguous; it matches {sorted(matches)}")
        raise UnknownBall(f"unknown ball {name!r}; have {sorted(self.balls)}")

    def link_weights(self, from_ball: str, to_ball: str) -> np.ndarray:
        """`links[from_ball, to_ball]`, or a fresh zero array that is not kept if the pair has none yet."""
        u = self.links.get((from_ball, to_ball))  # a pair is kept only between known balls
        return np.zeros((self.ball(from_ball).n, self.ball(to_ball).n)) if u is None else u

    def _link_array(self, from_ball: str, to_ball: str) -> np.ndarray:
        """The pair's link array for writing: made all zeros, and kept, at its first write."""
        self.links[from_ball, to_ball] = u = self.link_weights(from_ball, to_ball)
        return u

    def trained_links(self) -> list[tuple[str, int, str, int, float]]:
        """Nonzero cross weights as (from_ball, k, to_ball, l, u), sorted."""
        return sorted(
            (a, int(k), b, int(l), float(u[k, l]))
            for (a, b), u in self.links.items()
            for k, l in zip(*np.nonzero(u))
        )

    def _delta_rule(self, weight, target, x, *where):
        """One Widrow-Hoff step `weight + (target - output) * x` at rate 1; `x` None is input 1.

        `weight` is a row or a float, and a row `weight` and `x` are rows of
        the caller's own, which the step overwrites; `weight` None is a +0.0
        row, whose error from `target` at input 1 is `target` itself.  With
        input 1 the new weight is `target` itself and a row's error is formed
        in `weight`; else the step is formed in `x` and added to `weight` in
        place.
        Returns the new weight and the report of the error before the step:
        its half square and the step's largest term.  Raises NonFiniteWeight
        if the error or the new weight is not finite, so the caller stores
        nothing; only then is its message formatted, from the format string
        and arguments `where`.
        """
        if x is None:
            err = (target if weight is None else np.subtract(target, weight, out=weight)
                   if isinstance(weight, np.ndarray) else target - weight)
        else:
            err = target - float(weight @ x)
        step = err if x is None else np.multiply(x, err, out=x)
        # the cue rule's step takes its own magnitudes once its sum is taken; a recall row error needs a spare row
        spare = step if x is not None else np.empty_like(err) if isinstance(err, np.ndarray) else None
        error = _half_square(err, spare)
        if x is not None:
            weight += step
        max_delta = abs(step) if spare is None else float(np.maximum.reduce(np.abs(step, out=spare), axis=None))
        if x is None:  # the exact sum weight + (target - weight), which floats may miss
            # a non-finite target or weight makes the error inf or nan, so only then is `err` scanned
            new, finite = target, math.isfinite(error) or np.isfinite(err).all()
        else:  # a non-finite error spreads to the sum, and a finite one may overflow it
            new, finite = weight, np.isfinite(weight).all()
        if not finite:
            raise NonFiniteWeight(f"learning {where[0] % where[1:]} left a non-finite weight")
        return new, UpdateReport(error, max_delta)

    # -- recall path --------------------------------------------------------

    def recall_forward(self, ball_id: str, neuron: int) -> np.ndarray:
        """Pattern replayed by one cue neuron held at output 1.

        Only that neuron's own weight row contributes; there is no summation
        over the other cue neurons.
        """
        return self.ball(ball_id).recall_row(neuron)

    def learn_recall_weights(self, ball_id: str, neuron: int, target) -> UpdateReport:
        """Delta-rule update of a neuron's recall row toward the target vector.

        The neuron's output is held at 1 while learning, so the step adds
        target - row.  From any weight one step stores the target itself,
        bit for bit, and a repeat is a no-op.
        """
        ball = self.ball(ball_id)
        _check_neuron(ball, neuron)
        t = _check_vector(target, self.config.dim)
        row, report = self._delta_rule(ball.recall_row(neuron), t, None, "w row %s:%s", ball.id, neuron)
        ball.set_recall_row(neuron, row)
        return report

    # -- cue path -----------------------------------------------------------

    def cue_response(self, ball_id: str, probe, threshold: float | None = None) -> CueResponse:
        """Pre-threshold outputs of every neuron in a ball for a probe: the popcount form where it applies, else the product."""
        ball = self.ball(ball_id)
        p = _check_vector(probe, self.config.dim)
        q = _bitmap_response(ball.cue_index(), p)
        return self._response(ball.cue_product(p) if q is None else q, threshold)

    def learn_cue_weights(self, ball_id: str, neuron: int) -> UpdateReport:
        """Delta-rule update of a neuron's cue row toward output `THETA`.

        The input y is the recall output presented back to the ball: the
        neuron's own stored row.  The step adds (theta - q) * y.  From zero
        weights and unit-energy y, it puts the row at theta * y, whose
        response to y is theta to within rounding.
        """
        ball = self.ball(ball_id)
        _check_neuron(ball, neuron)
        return self._learn_cue(ball, neuron, ball.recall_row(neuron))

    def _learn_cue(self, ball: Ball, neuron: int, y: np.ndarray) -> UpdateReport:
        """The cue rule with input `y`, a C-contiguous copy of the neuron's recall row, which takes the step."""
        row, report = self._delta_rule(ball.cue_row(neuron), THETA, y, "v row %s:%s", ball.id, neuron)
        ball.set_cue_row(neuron, row)
        return report

    # -- cross path ---------------------------------------------------------

    def cross_response(
        self, from_ball: str, from_neuron: int, to_ball: str, threshold: float | None = None
    ) -> CueResponse:
        """Responses in the target ball when a source neuron fires (output 1)."""
        src = self.ball(from_ball)
        dst = self.ball(to_ball)
        if src.id == dst.id:
            raise IntraBallLink("cue neurons within one ball are not connected")
        _check_neuron(src, from_neuron)
        return self._response(self.link_weights(src.id, dst.id)[from_neuron].copy(), threshold)

    def _threshold(self, threshold: float | None) -> float:
        """`threshold`, or `THRESHOLD` if None; a query's threshold must be positive and finite."""
        thr = THRESHOLD if threshold is None else float(threshold)
        if not 0 < thr < math.inf:  # also false for nan
            raise ValueError(f"threshold must be positive and finite, got {thr}")
        return thr

    def _response(self, q: np.ndarray, threshold: float | None) -> CueResponse:
        """Outputs `q` thresholded at `threshold`, or at `THRESHOLD` if None."""
        thr = self._threshold(threshold)
        fired = tuple(int(i) for i in np.flatnonzero(q >= thr))
        return CueResponse(q=q, fired=fired, argmax=int(np.argmax(q)), threshold=thr)

    def learn_cross_weights(
        self, ball_a: str, k: int, ball_b: str, l: int
    ) -> tuple[UpdateReport, UpdateReport]:
        """Train the (a,k) <-> (b,l) cross pair, both directions.

        The source neuron's output is 1, so a link responds with its own
        weight.  Each direction steps from its current weight toward theta
        and lands on it exactly, from zero or from any loaded weight, and a
        repeat is a no-op.  Both steps precede either store.
        """
        a = self.ball(ball_a)
        b = self.ball(ball_b)
        if a.id == b.id:
            raise IntraBallLink(
                f"pair ({ball_a}:{k}, {ball_b}:{l}) stays within one ball"
            )
        _check_neuron(a, k)
        _check_neuron(b, l)
        forward, backward = self._link_array(a.id, b.id), self._link_array(b.id, a.id)
        u_ab, forward_report = self._delta_rule(forward.item(k, l), THETA, None, "link %s:%s->%s:%s", a.id, k, b.id, l)
        u_ba, backward_report = self._delta_rule(backward.item(l, k), THETA, None, "link %s:%s->%s:%s", b.id, l, a.id, k)
        forward[k, l], backward[l, k] = u_ab, u_ba
        return forward_report, backward_report

    # -- composite operations -----------------------------------------------

    def store(self, ball_id: str, neuron: int, target) -> tuple[UpdateReport, UpdateReport]:
        """Memorize one pattern: learn the recall row, then the cue row from it.

        The recall row is the target itself, bit for bit, so the cue rule takes
        a copy of the target, not an unpacked row; a copy is C-contiguous, and
        a dot product with a strided input may round to other bits.  On a blank
        neuron the recall error is the target itself, and a one-level target
        `d` takes no copy: its cue row is the rule's step from +0.0, level
        `THETA * d + 0.0` on the target's support, with no product.
        """
        ball = self.ball(ball_id)
        _check_neuron(ball, neuron)
        t = _check_vector(target, self.config.dim)
        recall, cue = ball._recall, ball._cue
        if recall.dense is None and cue.dense is None and recall.levels[neuron] == cue.levels[neuron] == 0:
            w_report = self._delta_rule(None, t, None, "w row %s:%s", ball.id, neuron)[1]
            ball.set_recall_row(neuron, t)
            if recall.dense is None:  # a one-level target: the step on its level warns on overflow as on the row
                (level,) = np.multiply(recall.levels[neuron:neuron + 1], THETA) + 0.0
                if not math.isfinite(level):
                    raise NonFiniteWeight(f"learning v row {ball.id}:{neuron} left a non-finite weight")
                cue.levels[neuron], cue.words[neuron] = level, recall.words[neuron]
                return w_report, UpdateReport(_half_square(THETA), abs(float(level)))
        else:
            w_report = self.learn_recall_weights(ball_id, neuron, t)
        return w_report, self._learn_cue(ball, neuron, np.array(t))

    def associate(
        self, from_ball: str, probe, to_ball: str, threshold: float | None = None
    ) -> AssociationResult:
        """Recognize a probe in one ball and recall its linked pattern in another.

        Both balls are looked up before the probe is, and a ball has no
        links to itself, so an unknown ball raises UnknownBall and
        `from_ball == to_ball` raises IntraBallLink, whatever the probe.
        The source neuron is `cue_response`'s argmax, and the target
        neuron `cross_response`'s.
        """
        if self.ball(from_ball) is self.ball(to_ball):
            raise IntraBallLink("cue neurons within one ball are not connected")
        response = self.cue_response(from_ball, probe, threshold)
        if not response.fired:
            raise NoRecognition(
                f"no neuron in {from_ball!r} reached threshold "
                f"{response.threshold} (max q = {response.q.max():.6g})"
            )
        k = response.argmax
        cross = self.cross_response(from_ball, k, to_ball, threshold)
        if not cross.fired:
            raise NoAssociation(
                f"no trained link from {from_ball}:{k} fired in {to_ball!r}"
            )
        l = cross.argmax
        recalled = self.recall_forward(to_ball, l)
        return AssociationResult(
            source_neuron=k, target_neuron=l, q=float(cross.q[l]), recalled=recalled
        )
