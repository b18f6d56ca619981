"""The online update loop: noisy gradients, per-slot step sizes, projected ascent.

One engine run (:func:`run_episode`) is strictly sequential, since each
waypoint depends on the previous one, but runs share no state and
independent episodes may execute concurrently.  All randomness is a pure
function of ``(seed, slot)``, which makes replays bit-identical: each slot's
normals come from Box-Muller on two SplitMix64 outputs keyed by the seed
and the slot counter (:func:`normal_pair`), so a draw costs O(1) whatever
the slot, and it does not depend on the horizon or on which slots were
drawn before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Protocol

from .errors import EmptyStepInterval, InfeasibleStepSize, RootExistence
from .geom import Point, Vector, add, norm, norm_sq, scale, sub
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


def normal_pair(seed: int, t: int) -> tuple[float, float]:
    """Two independent standard normals keyed by ``(seed, t)``.

    Box-Muller on the splitmix64 outputs at counters ``2t`` and ``2t + 1`` of
    the stream that starts at the mixed seed: the counter steps by the golden
    gamma, not by 1, and seeds a small distance apart start far apart.  The
    first uniform lies in ``(0, 1]``, so the logarithm is always finite.
    """
    c = _mix64(seed & _MASK64) + 2 * t * _GOLDEN
    u1 = ((_mix64(c & _MASK64) >> 11) + 1) * _ULP53
    u2 = (_mix64((c + _GOLDEN) & _MASK64) >> 11) * _ULP53
    r = math.sqrt(-2.0 * math.log(u1))
    return (r * math.cos(_TWO_PI * u2), r * math.sin(_TWO_PI * u2))


@dataclass(frozen=True)
class NoiseModel:
    """Additive gradient noise with a per-slot decaying scale.

    ``kind="none"`` draws exactly zero.  ``kind="gaussian_decaying"`` draws
    i.i.d. per-coordinate normals with per-slot standard deviation
    ``eps_t / sqrt(2)`` where ``eps_t = eps0 * t**-decay_q``, so the expected
    squared norm of a draw equals the bound ``eps_t**2``.
    """

    kind: Literal["none", "gaussian_decaying"] = "none"
    eps0: float = 0.0
    decay_q: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian_decaying"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.decay_q < 0.0:
            raise ValueError("decay exponent must be >= 0")

    def eps_sq_bound(self, t: int) -> float:
        if self.kind == "none":
            return 0.0
        eps_t = self.eps0 * t ** (-self.decay_q)
        return eps_t * eps_t

    def draw(self, t: int) -> Vector:
        if self.kind == "none":
            return (0.0, 0.0)
        eps_t = self.eps0 * t ** (-self.decay_q)
        sigma = eps_t / 2.0**0.5
        z0, z1 = normal_pair(self.seed, t)
        return (sigma * z0, sigma * z1)


def noisy_gradient(true_grad: Vector, model: NoiseModel, t: int) -> tuple[Vector, float]:
    """Corrupt a gradient with the model's slot-``t`` draw.

    Returns the noisy gradient and the realized squared noise norm.
    """
    n = model.draw(t)
    return add(true_grad, n), norm_sq(n)


@dataclass(frozen=True, slots=True)
class EngineState:
    """Where the agent is at slot ``t`` plus its running gradient-norm max."""

    t: int
    x_hat: Point
    x_prev: Point
    gbar_running: float = 0.0


@dataclass(frozen=True, slots=True)
class StepRecord:
    t: int
    x_before: Point
    x_after: Point
    gamma: float
    grad_tilde: Vector
    eps_sq_realized: float
    eps_sq_bound: float
    constraint_slack: float


def ioga_step(state: EngineState, grad_tilde: Vector, gamma: float, region: Box2D) -> EngineState:
    """One projected ascent step ``x <- P(x + grad/gamma)``."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    x_next = region.project(add(state.x_hat, scale(grad_tilde, 1.0 / gamma)))
    return EngineState(
        t=state.t + 1,
        x_hat=x_next,
        x_prev=state.x_hat,
        gbar_running=max(state.gbar_running, norm(grad_tilde)),
    )


@dataclass(slots=True)
class SlotPlan:
    """Everything a driver knows about one slot before the step is taken.

    ``grad_true`` is the exact utility gradient, ``grad_observed`` the one
    the agent actually sees before additive model noise (they differ when
    e.g. the peer position or the current measurement is corrupted).
    ``gamma`` turns the final noisy gradient and running norm bound into a
    learning rate; ``slack`` evaluates the coupled constraint for the step.
    """

    grad_true: Vector
    grad_observed: Vector
    gamma: Callable[[Vector, float], float]
    slack: Callable[[Point, Point], float]


class EpisodeDriver(Protocol):
    start: Point
    horizon: int
    region: Box2D
    noise: NoiseModel

    def plan(self, t: int, x_hat: Point, x_prev: Point, mode: Mode) -> SlotPlan: ...


def run_episode(driver: EpisodeDriver, mode: Mode = "standard"):
    """Run ``horizon - 1`` steps from the driver's start.

    Returns the waypoint list (length ``horizon``) and one
    :class:`StepRecord` per executed step.  Raises
    :class:`InfeasibleStepSize` if the step-size policy fails at some slot
    or the executed step violates its coupled constraint.
    """
    if mode not in ("standard", "lookahead"):
        raise ValueError(f"unknown mode {mode!r}")
    start, region, noise, plan_slot = driver.start, driver.region, driver.noise, driver.plan
    state = EngineState(t=1, x_hat=start, x_prev=start)
    waypoints: list[Point] = [start]
    records: list[StepRecord] = []
    for t in range(1, driver.horizon):
        x_hat = state.x_hat
        plan = plan_slot(t, x_hat, state.x_prev, mode)
        grad_tilde, _ = noisy_gradient(plan.grad_observed, noise, t)
        gbar = max(state.gbar_running, norm(grad_tilde))
        try:
            gamma = plan.gamma(grad_tilde, gbar)
        except (EmptyStepInterval, RootExistence) as exc:
            raise InfeasibleStepSize(t, str(exc)) from exc
        state = ioga_step(state, grad_tilde, gamma, region)
        slack = plan.slack(x_hat, state.x_hat)
        if slack > SLACK_TOL:
            raise InfeasibleStepSize(
                t, f"executed step violates its constraint by {slack:.3e}"
            )
        records.append(
            StepRecord(
                t=t,
                x_before=x_hat,
                x_after=state.x_hat,
                gamma=gamma,
                grad_tilde=grad_tilde,
                eps_sq_realized=norm_sq(sub(grad_tilde, plan.grad_true)),
                eps_sq_bound=noise.eps_sq_bound(t),
                constraint_slack=slack,
            )
        )
        waypoints.append(state.x_hat)
    return waypoints, records
