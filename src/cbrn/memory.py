"""One-shot delta-rule learning and recall between Cue Balls and a Recall Net.

Each Cue Ball (`Ball`) is a group of cue neurons, one per stored pattern,
with two weight rows per neuron.  Recall weights `w` (cue to recall) hold
the presentation vector a neuron replays into the Recall Net; cue weights
`v` (recall to cue) drive the matching neuron's pre-threshold output to the
learning value theta.  Cross weights couple cue neurons across balls, one
dense array per ordered ball pair, so a recognized pattern in one ball
recalls its linked pattern in another.  A pair's array is made when the
pair is first trained or loaded; until then the pair reads as all zeros,
and reading it adds nothing.

All three learning rules are one Widrow-Hoff step at rate 1,
`delta = (target - output) * input`: the recall rule targets the pattern
with input 1, the cue rule targets theta with the recalled pattern as
input, and the cross rule targets theta with input 1.  From zero-initialized
weights the recall and cross rules reach their targets in a single update,
and a repeat is an exact no-op.  The cue rule lands within rounding of its
target: a repeat on the bundled labels' QR rows moves each `v` row by
5.2e-16 to 3.0e-15 and changes no fired set.  A step on a row goes through
two row-sized buffers: the step itself, which becomes the new weight, and
one spare row for the squares, the magnitudes and the new error in turn.
With input 1 the error is the step, since `err * 1.0 == err` bit for bit.
A float error (the cue and cross rules) is squared as a `np.float64`, the
same IEEE product as `np.square`, so an overflow still warns.

A system instance is single-writer while learning.  Response and recall
calls never mutate state, so a trained system may be queried concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

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


@dataclass
class SystemConfig:
    """Learning constants shared by every ball of a system; `store` writes its fields, in order, as the CBRN1 header."""

    dim: int = 13_456
    theta: float = 100.0  # learning value: target pre-threshold output
    threshold: float = 72.0  # firing cutoff of the cue step function

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        for field in fields(self):
            if type(field.default) is float and not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite, got {getattr(self, field.name)}")
        # One step from zero puts a link and a clean unit probe's q at theta; rounding
        # leaves the probe within 1.05e-12 of it, some below, so a 1e-9 margin is ample.
        if not self.theta > self.threshold * (1 + 1e-9) > 0:
            raise ValueError(f"need theta = {self.theta:g} > threshold = {self.threshold:g} > 0,"
                             " otherwise trained neurons never fire")


class Ball:
    """One Cue Ball: a cue neuron per stored pattern and its two weight rows.

    Row i of `w` (recall weights) is the pattern neuron i replays into the
    Recall Net; row i of `v` (cue weights) maps the Recall Net onto neuron
    i's pre-threshold output.
    """

    def __init__(self, ball_id: str, labels, dim: int) -> None:
        self.id = ball_id
        self.labels = list(labels)
        self.n = len(self.labels)
        self.w = np.zeros((self.n, dim))
        self.v = np.zeros((self.n, dim))


@dataclass(frozen=True)
class CueResponse:
    """Pre-threshold outputs of one ball plus the thresholding outcome."""

    q: np.ndarray
    fired: tuple[int, ...]  # indices with q >= threshold, ascending
    argmax: int  # lowest index attaining the maximum
    threshold: float


@dataclass(frozen=True)
class UpdateReport:
    """Diagnostics of one learn call."""

    error: float  # half squared error before the step
    final_error: float  # half squared error after it
    max_delta: float  # largest update term of the step


@dataclass(frozen=True)
class AssociationResult:
    """Outcome of a cross-ball recall."""

    source_neuron: int
    target_neuron: int
    q: float  # target neuron's pre-threshold response
    recalled: np.ndarray


# A learning step's error is a float or a row; `out`, if given, is the
# step's spare row, which takes the squares.  A ufunc reduction sums a row in
# the order `ndarray.sum` does.
def _half_square(err, **out) -> float:
    if isinstance(err, float):
        err = np.float64(err)  # whose product warns on overflow, as np.square does
        return 0.5 * float(err * err)
    return 0.5 * float(np.add.reduce(np.square(err, **out), axis=None))


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
        u = self.links.get((from_ball, to_ball))
        return np.zeros((self.balls[from_ball].n, self.balls[to_ball].n)) if u is None else u

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

    def _check_neuron(self, ball: Ball, neuron: int) -> None:
        if not 0 <= neuron < ball.n:
            raise NeuronIndexError(
                f"neuron {neuron} out of range for ball {ball.id!r} (n={ball.n})"
            )

    def _check_vector(self, vector) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float64).reshape(-1)
        if v.size != self.config.dim:
            raise DimensionMismatch(
                f"vector has {v.size} components, system dimension is {self.config.dim}"
            )
        return v

    def _delta_rule(self, where: str, weight, residual, x=None):
        """One Widrow-Hoff step `weight + residual(weight) * x`; `x` None is input 1.

        `residual(weight)` is the error `target - output(weight)`: a row for
        the recall rule, written to `out` when that is given, else a float.
        `weight` is a row or a float and is not modified.  Returns the new
        weight and the report: the half squared error before and after the
        step, and its largest term.  Raises NonFiniteWeight if the step
        overflows, so the caller stores nothing.
        """
        err = residual(weight)
        step = err if x is None else err * x  # err * 1.0 == err bit for bit, so input 1 steps by err itself
        # a row step has one spare row, which takes the squares, the magnitudes
        # and the new error in turn; a float step is scalar arithmetic
        row = isinstance(step, np.ndarray)
        spare = {"out": np.empty_like(step)} if row else {}
        spare_err = spare if step is err else {}  # the cue rule's err is a float and its step a row
        error = _half_square(err, **spare_err)  # before the step takes the weight in
        max_delta = float(np.maximum.reduce(np.abs(step, **spare), axis=None)) if row else abs(step)
        step += weight  # so the sum lands in the step, not in the caller's row
        final = _half_square(residual(step, **spare_err), **spare_err)
        # an inf or nan weight makes the final error inf or nan, so only
        # then is the weight itself scanned
        if not math.isfinite(final) and not np.isfinite(step).all():
            raise NonFiniteWeight(f"learning {where} left a non-finite weight")
        return step, UpdateReport(error, final, max_delta)

    # -- recall path --------------------------------------------------------

    def recall_forward(self, ball_id: str, neuron: int) -> np.ndarray:
        """Pattern replayed by one cue neuron held at output 1.

        Only that neuron's own weight row contributes; there is no summation
        over the other cue neurons.
        """
        ball = self.ball(ball_id)
        self._check_neuron(ball, neuron)
        return ball.w[neuron].copy()

    def learn_recall_weights(self, ball_id: str, neuron: int, target) -> UpdateReport:
        """Delta-rule update of a neuron's recall row toward the target vector.

        The neuron's output is held at 1 while learning, so the step adds
        target - row.  From zero weights one step stores the target exactly
        and a repeat is a no-op.
        """
        ball = self.ball(ball_id)
        self._check_neuron(ball, neuron)
        t = self._check_vector(target)
        ball.w[neuron], report = self._delta_rule(f"w row {ball.id}:{neuron}", ball.w[neuron],
                                                  partial(np.subtract, t))  # t - row, into `out` if given
        return report

    # -- cue path -----------------------------------------------------------

    def cue_response(self, ball_id: str, probe, threshold: float | None = None) -> CueResponse:
        """Pre-threshold outputs of every neuron in a ball for a probe vector."""
        ball = self.ball(ball_id)
        return self._response(ball.v @ self._check_vector(probe), threshold)

    def learn_cue_weights(self, ball_id: str, neuron: int) -> UpdateReport:
        """Delta-rule update of a neuron's cue row toward output theta.

        The input y is the recall output presented back to the ball: the
        neuron's own stored row.  The step adds (theta - q) * y.  From zero
        weights and unit-energy y, it puts the row at theta * y, whose
        response to y is theta to within rounding.
        """
        ball = self.ball(ball_id)
        self._check_neuron(ball, neuron)
        yv, theta = ball.w[neuron], self.config.theta
        ball.v[neuron], report = self._delta_rule(f"v row {ball.id}:{neuron}", ball.v[neuron],
                                                  lambda row: theta - float(row @ yv), yv)
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
        self._check_neuron(src, from_neuron)
        return self._response(self.link_weights(src.id, dst.id)[from_neuron].copy(), threshold)

    def _response(self, q: np.ndarray, threshold: float | None) -> CueResponse:
        """Outputs `q` thresholded at `threshold`, or at the configured one if None."""
        thr = self.config.threshold if threshold is None else float(threshold)
        if not 0 < thr < math.inf:  # also false for nan
            raise ValueError(f"threshold must be positive and finite, got {thr}")
        fired = tuple(int(i) for i in np.flatnonzero(q >= thr))
        return CueResponse(q=q, fired=fired, argmax=int(np.argmax(q)), threshold=thr)

    def learn_cross_weights(
        self, ball_a: str, k: int, ball_b: str, l: int
    ) -> tuple[UpdateReport, UpdateReport]:
        """Train the (a,k) <-> (b,l) cross pair, both directions.

        The source neuron's output is 1, so a link responds with its own
        weight.  Each direction starts from zero and reaches theta in one
        step; the reverse direction is trained by swapping the roles of the
        two balls.
        """
        a = self.ball(ball_a)
        b = self.ball(ball_b)
        if a.id == b.id:
            raise IntraBallLink(
                f"pair ({ball_a}:{k}, {ball_b}:{l}) stays within one ball"
            )
        self._check_neuron(a, k)
        self._check_neuron(b, l)
        forward, backward, theta = self._link_array(a.id, b.id), self._link_array(b.id, a.id), self.config.theta
        u_ab, forward_report = self._delta_rule(f"link {a.id}:{k}->{b.id}:{l}", forward.item(k, l),
                                                lambda u: theta - u)
        u_ba, backward_report = self._delta_rule(f"link {b.id}:{l}->{a.id}:{k}", backward.item(l, k),
                                                 lambda u: theta - u)
        forward[k, l], backward[l, k] = u_ab, u_ba
        return forward_report, backward_report

    # -- composite operations -----------------------------------------------

    def store(self, ball_id: str, neuron: int, target) -> tuple[UpdateReport, UpdateReport]:
        """Memorize one pattern: learn the recall row, then the cue row from it."""
        w_report = self.learn_recall_weights(ball_id, neuron, target)
        v_report = self.learn_cue_weights(ball_id, neuron)
        return w_report, v_report

    def associate(
        self, from_ball: str, probe, to_ball: str, threshold: float | None = None
    ) -> AssociationResult:
        """Recognize a probe in one ball and recall its linked pattern in another.

        Both balls are looked up before the probe is, and a ball has no
        links to itself, so an unknown ball raises UnknownBall and
        `from_ball == to_ball` raises IntraBallLink, whatever the probe.
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
