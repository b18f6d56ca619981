"""The online update loop: noisy gradients, per-slot step sizes, projected ascent.

One engine run (:func:`run_episode`) is strictly sequential, since each
waypoint depends on the previous one, but runs share no state and
independent episodes may execute concurrently.  All randomness is a pure
function of ``(seed, slot)``, which makes replays bit-identical: each slot's
normals come from Box-Muller on two SplitMix64 outputs keyed by the seed
and the slot counter, a counter-based draw, so a slot's draw does not
depend on the horizon or on which slots were drawn before.  The stream has
one definition, an array pass over a block of slots
(:func:`normal_pairs`; :meth:`NoiseModel.draws` scales it by ``eps_t``),
and a one-slot block is the per-slot draw (:meth:`NoiseModel.draw`).  An
episode draws its noise ahead of the loop, :data:`NOISE_BLOCK` slots per
pass.  The 64-bit mixing wraps on ``uint64`` arrays, and the logarithm,
cosine and sine are ``math``'s, mapped over the array, since numpy's
logarithm differs from it in the last bit.

A driver (:class:`EpisodeDriver`) answers two calls per slot.
``plan(t, x_hat, mode)`` returns the exact and the observed gradient, keeps
the slot's constants on the driver and publishes its step cap, ``center``
and ``radius``; ``gamma(grad_tilde, gbar)`` then reads them for the step
size.  :class:`EngineState` is a named tuple, built once per
step by ``tuple.__new__``, which skips the Python-level ``__new__``.  The
steps go to float columns (:class:`StepColumns`), which keep no per-step
tuple for the garbage collector and build a :class:`StepRecord` only when
it is read.  Each two-argument ``min``/``max`` on the per-slot path is
written as the comparison that returns the same operand (``max(a, b)`` is
``b if b > a else a``), so NaN and signed zero come out exactly as the
builtins give them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Literal, NamedTuple, Protocol

import numpy as np

from .errors import (
    INTEGER,
    NONNEGATIVE,
    EmptyStepInterval,
    InfeasibleStepSize,
    RootExistence,
    check,
    one_of,
)
from .geom import Point, Vector, mapped, points
from .sets import Box2D

SLACK_TOL = 1e-9

Mode = Literal["standard", "lookahead"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """The splitmix64 finalizer, a bijection on 64-bit integers."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def slot_seed(seed: int, t: int) -> int:
    """Stable 64-bit mix of a stream seed and a slot index (splitmix64)."""
    return _mix64((seed * _GOLDEN + t) & _MASK64)


_TWO_PI = 2.0 * math.pi
_ULP53 = 2.0**-53


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` on a ``uint64`` array; array products wrap mod 2^64 without a warning."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _keyed_normal_pairs(key: int, t0: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`normal_pairs` of the stream that starts at the mixed seed ``key``."""
    t = np.arange(t0, t0 + n, dtype=np.uint64)
    c = t * np.uint64(2 * _GOLDEN & _MASK64) + np.uint64(key)
    u1 = ((_mix64_array(c) >> 11) + 1).astype(float) * _ULP53
    angle = _TWO_PI * ((_mix64_array(c + np.uint64(_GOLDEN)) >> 11).astype(float) * _ULP53)
    # IEEE rounds the square root and the products exactly, so numpy may take them
    r = np.sqrt(-2.0 * mapped(math.log, u1))
    return r * mapped(math.cos, angle), r * mapped(math.sin, angle)


def normal_pairs(seed: int, t0: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard normals for each slot ``t = t0 .. t0 + n - 1``, as two arrays.

    Box-Muller on the splitmix64 outputs at counters ``2t`` and ``2t + 1`` of
    the stream that starts at the mixed seed: the counter steps by the golden
    gamma, not by 1, and seeds a small distance apart start far apart.  The
    first uniform lies in ``(0, 1]``, so the logarithm is always finite.
    ``t0`` is at least 0.
    """
    return _keyed_normal_pairs(_mix64(seed & _MASK64), t0, n)


@dataclass(frozen=True)
class NoiseModel:
    """Additive gradient noise with a per-slot decaying scale.

    ``kind="none"`` draws exactly zero.  ``kind="gaussian_decaying"`` draws
    i.i.d. per-coordinate normals with per-slot standard deviation
    ``eps_t / sqrt(2)`` where ``eps_t = eps0 * t**-decay_q``, so the expected
    squared norm of a draw equals the bound ``eps_t**2``.  :meth:`draws`
    holds both formulas; :meth:`eps` and :meth:`draw` read one slot of it.
    """

    kind: Literal["none", "gaussian_decaying"] = "none"
    eps0: float = 0.0
    decay_q: float = 0.0
    seed: int = 0
    _key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check each value rule, naming the ``gradient_noise`` key of a document."""
        check(one_of("none", "gaussian_decaying"), self.kind, "gradient_noise.kind")
        check(NONNEGATIVE, self.eps0, "gradient_noise.eps0")
        check(NONNEGATIVE, self.decay_q, "gradient_noise.decay_q")
        check(INTEGER, self.seed, "gradient_noise.seed")
        object.__setattr__(self, "_key", _mix64(self.seed & _MASK64))

    def eps(self, t: int) -> float:
        """The slot-``t`` scale ``eps_t``, the one scale of ``draws(1, t)``."""
        return self.draws(1, t)[0][0]

    def draw(self, t: int) -> Vector:
        """The slot-``t`` noise, the one point of ``draws(1, t)``."""
        return self.draws(1, t)[1][0]

    def draws(self, n: int, t0: int = 1) -> tuple[list[float], list[Vector]]:
        """The scales ``eps_t`` and the noise of slots ``t0 .. t0 + n - 1``, in one array pass."""
        if self.kind == "none":
            return [0.0] * n, [(0.0, 0.0)] * n
        q = -self.decay_q
        eps = [self.eps0 * t**q for t in range(t0, t0 + n)]
        z0, z1 = _keyed_normal_pairs(self._key, t0, n)
        with np.errstate(all="ignore"):  # as quiet as float arithmetic
            sigma = np.array(eps) / 2.0**0.5
            return eps, points(sigma * z0, sigma * z1)


# Slots per array pass of an episode's noise draw: a block's floats live only
# while the loop walks it, so a long episode never holds the whole horizon's.
NOISE_BLOCK = 1024


def _slot_noise(noise: NoiseModel, steps: int):
    """``(t, eps(t), draw(t))`` for ``t = 1 .. steps``, drawn one block at a time."""
    for t0 in range(1, steps + 1, NOISE_BLOCK):
        n = min(NOISE_BLOCK, steps + 1 - t0)
        yield from zip(range(t0, t0 + n), *noise.draws(n, t0))


_new = tuple.__new__


class EngineState(NamedTuple):
    """Where the agent is at slot ``t`` and was at ``t - 1``; ``run_episode`` keeps ``gbar``."""

    t: int
    x_hat: Point
    x_prev: Point


class StepRecord(NamedTuple):
    t: int
    x_before: Point
    x_after: Point
    gamma: float
    grad_tilde: Vector
    eps_sq_realized: float
    eps_sq_bound: float
    constraint_slack: float


class StepColumns(Sequence[StepRecord]):
    """An episode's steps as float columns, read as a ``Sequence[StepRecord]``.

    Entry ``i`` of each column is step ``i + 1``'s: the step size, the noisy
    gradient and its norm, the realized and the bounded squared error, and
    the slack.  Step ``i + 1``'s record, from waypoints ``i`` and ``i + 1``,
    is built each time it is read.
    """

    COLUMNS = ("gamma", "g0", "g1", "grad_norm", "eps_sq_realized", "eps_sq_bound", "slack")

    def __init__(self, waypoints: list[Point]):
        self.waypoints = waypoints
        for name in self.COLUMNS:
            setattr(self, name, [])

    def __len__(self) -> int:
        return len(self.gamma)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i, w = range(len(self))[i], self.waypoints
        fields = (i + 1, w[i], w[i + 1], self.gamma[i], (self.g0[i], self.g1[i]),
                  self.eps_sq_realized[i], self.eps_sq_bound[i], self.slack[i])
        return _new(StepRecord, fields)

    def __iter__(self):
        w = self.waypoints
        rows = zip(count(1), w, islice(w, 1, None), self.gamma, zip(self.g0, self.g1),
                   self.eps_sq_realized, self.eps_sq_bound, self.slack)
        return (_new(StepRecord, row) for row in rows)


def ioga_step(state: EngineState, grad_tilde: Vector, gamma: float, region: Box2D) -> EngineState:
    """The projected ascent step ``x <- P(x + grad/gamma)`` alone; NaN ``gamma`` is rejected."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    t, x_hat, _ = state
    (x0, x1), (g0, g1), s = x_hat, grad_tilde, 1.0 / gamma
    (lo0, lo1), (hi0, hi1) = region.lo, region.hi
    # min(max(y, lo), hi), as comparisons
    y0, y1 = x0 + g0 * s, x1 + g1 * s
    y0 = lo0 if lo0 > y0 else y0
    y1 = lo1 if lo1 > y1 else y1
    return _new(EngineState, (t + 1, (hi0 if hi0 < y0 else y0, hi1 if hi1 < y1 else y1), x_hat))


class EpisodeDriver(Protocol):
    """One episode's per-slot schedule; see the module docstring for the calls."""

    start: Point
    horizon: int
    region: Box2D
    noise: NoiseModel
    center: Vector
    radius: float

    def plan(self, t: int, x_hat: Point, mode: Mode) -> tuple[Vector, Vector]: ...
    def gamma(self, grad_tilde: Vector, gbar: float) -> float: ...


def run_episode(driver: EpisodeDriver, mode: Mode = "standard"):
    """Run ``horizon - 1`` steps from the driver's start.

    The driver's noise is drawn :data:`NOISE_BLOCK` steps ahead, one array
    pass per block.  The loop alone keeps the running gradient bound
    ``gbar``, the largest noisy-gradient norm so far, and hands it to the
    driver's ``gamma``.  Returns the waypoint list (length ``horizon``) and the
    executed steps as :class:`StepColumns`.  Raises
    :class:`InfeasibleStepSize` if the step-size policy fails at some slot
    or the executed step ``a -> b`` breaks the cap its ``plan`` published,
    ``hypot(b - a - center) <= radius``; a NaN slack counts as a violation.
    """
    if mode not in ("standard", "lookahead"):
        raise ValueError(f"unknown mode {mode!r}")
    start, region = driver.start, driver.region
    plan, step_size = driver.plan, driver.gamma
    hypot = math.hypot
    state, gbar = EngineState(1, start, start), 0.0
    waypoints: list[Point] = [start]
    records = StepColumns(waypoints)
    puts = [getattr(records, name).append for name in records.COLUMNS]
    put_gamma, put_g0, put_g1, put_norm, put_err, put_bound, put_slack = puts
    for t, eps_t, n in _slot_noise(driver.noise, driver.horizon - 1):
        x_hat = state.x_hat
        grad_true, grad_obs = plan(t, x_hat, mode)
        g0, g1 = grad_obs[0] + n[0], grad_obs[1] + n[1]
        grad_tilde = (g0, g1)
        g = hypot(g0, g1)
        gbar = g if g > gbar else gbar
        try:
            gamma = step_size(grad_tilde, gbar)
            state = ioga_step(state, grad_tilde, gamma, region)
        except (EmptyStepInterval, RootExistence, ValueError) as exc:
            interval = (exc.lower, exc.upper) if isinstance(exc, EmptyStepInterval) else None
            raise InfeasibleStepSize(t, str(exc), gbar, interval) from exc
        x_next = state.x_hat
        (a0, a1), (b0, b1), (c0, c1) = x_hat, x_next, driver.center
        slack = hypot(b0 - a0 - c0, b1 - a1 - c1) - driver.radius
        if not slack <= SLACK_TOL:
            detail = f"executed step violates its constraint by {slack:.3e}"
            raise InfeasibleStepSize(t, detail, gbar)
        e0, e1 = g0 - grad_true[0], g1 - grad_true[1]
        put_gamma(gamma)
        put_g0(g0)
        put_g1(g1)
        put_norm(g)
        put_err(e0 * e0 + e1 * e1)
        put_bound(eps_t * eps_t)
        put_slack(slack)
        waypoints.append(x_next)
    return waypoints, records
