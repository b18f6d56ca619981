"""Utility families, their exact gradients, and feasibility-preserving step sizes.

Two families are implemented:

* the commute (device-to-device) family, which chases a *leading path*
  blending a peer's position with the destination, with either a squared or
  a robust (Huber-style) distance penalty;
* the voyage (ocean) family, which blends goal attraction with drifting
  along the current, throttled so the relative-speed cap stays feasible.

Conventions used throughout: the squared penalty is ``-0.5 * d^2`` so its
gradient toward the leading path is exactly ``ell - x``; the robust penalty
uses the matching unit scaling.
"""

from __future__ import annotations

import math

from .errors import EmptyStepInterval, RootExistence
from .geom import Point, Vector, angle_between, dist, dot, norm, norm_sq, sub
from .sets import Ball2D, project_ball

# Distance floor (meters) below which the far-field path-loss model of
# `rate` is invalid and the distance is clamped.
RATE_MIN_DISTANCE_M = 1.0

D2D_SMOOTHNESS = 1.0
# Goal-distance term contributes Hessian -2*lambda with lambda <= 1.
OCEAN_SMOOTHNESS = 2.0


# ---------------------------------------------------------------------------
# commute family


def leading_path(y: Point, d: Point, lam: float) -> Point:
    """Blend ``lam * y + (1 - lam) * d`` of peer position and destination."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"blend weight {lam} outside [0, 1]")
    return (lam * y[0] + (1.0 - lam) * d[0], lam * y[1] + (1.0 - lam) * d[1])


def huber_value(d: float, v_max: float, mu: float, legacy_constant: bool = False) -> float:
    """Robust distance penalty: quadratic near, blended linear/quadratic far.

    Continuously differentiable at ``d == v_max``.  ``legacy_constant``
    selects the historical offset ``(1 - mu^2) v_max^2 / 2``, which is value-
    discontinuous at the crossover and kept only for comparison runs.
    """
    if d < 0.0:
        raise ValueError(f"distance {d} must be nonnegative")
    if d <= v_max:
        return 0.5 * d * d
    if legacy_constant:
        offset = (1.0 - mu * mu) * v_max * v_max / 2.0
    else:
        offset = (1.0 - mu) * v_max * v_max / 2.0
    return v_max * (1.0 - mu) * d + 0.5 * mu * d * d - offset


def huber_gradient_norm(d: float, v_max: float, mu: float) -> float:
    """Magnitude of the derivative of :func:`huber_value` in the distance."""
    if d <= v_max:
        return d
    return v_max * (1.0 - mu) + mu * d


def d2d_utility(x: Point, ell: Point, v_max: float, mu: float, kind: str = "squared") -> float:
    """Utility of being at ``x`` while the leading path sits at ``ell``."""
    d = dist(x, ell)
    if kind == "squared":
        return -0.5 * d * d
    if kind == "huber":
        return -huber_value(d, v_max, mu)
    raise ValueError(f"unknown utility kind {kind!r}")


def d2d_gradient(x: Point, ell: Point, v_max: float, mu: float) -> Vector:
    """Gradient of the robust commute utility at ``x``.

    Combined form ``mu * (ell - x) + (1 - mu) * P_v(ell - x)`` where ``P_v``
    caps the pull at ``v_max``; inside the cap it reduces to ``ell - x``.
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu {mu} outside (0, 1]")
    pull = sub(ell, x)
    capped = project_ball(pull, Ball2D((0.0, 0.0), v_max))
    return (
        mu * pull[0] + (1.0 - mu) * capped[0],
        mu * pull[1] + (1.0 - mu) * capped[1],
    )


def d2d_gradient_piecewise(x: Point, ell: Point, v_max: float, mu: float) -> Vector:
    """Branch-by-branch form of :func:`d2d_gradient`, kept as a cross-check."""
    pull = sub(ell, x)
    n = norm(pull)
    if n <= v_max:
        return pull
    s = v_max * (1.0 - mu) / n
    return (s * pull[0] + mu * pull[0], s * pull[1] + mu * pull[1])


def d2d_step_size(
    gbar: float,
    v_max: float,
    alpha_t: float,
    alpha_min: float,
    L: float = D2D_SMOOTHNESS,
    margin: float = 1.01,
) -> float:
    """Learning rate keeping a commute step inside the velocity cap.

    Returns ``margin * max(gbar / (v_max * alpha_t), L)``.  The admissible
    interval is open on the right at ``gbar / (v_max * alpha_min)``; if the
    chosen value reaches it, the interval is empty for these constants and
    :class:`EmptyStepInterval` is raised.  A zero ``gbar`` means every
    gradient so far was zero, so the step is zero for any rate and the agent
    holds its position; ``margin * L`` is returned.
    """
    if gbar < 0.0:
        raise ValueError("gbar must be nonnegative")
    if not 0.0 < alpha_min <= alpha_t <= 1.0:
        raise ValueError(f"need 0 < alpha_min <= alpha_t <= 1, got {alpha_min}, {alpha_t}")
    if gbar == 0.0:
        return margin * L
    lower = max(gbar / (v_max * alpha_t), L)
    upper = gbar / (v_max * alpha_min)
    chosen = margin * lower
    if chosen >= upper:
        raise EmptyStepInterval(lower, upper, chosen)
    return chosen


def rate(
    x: Point,
    y: Point,
    alpha_p: float,
    bandwidth: float,
    sigma2: float,
) -> float:
    """Achievable link rate between two positions, in bits/s.

    Path loss ``d^-alpha_p`` with the distance clamped below at
    ``RATE_MIN_DISTANCE_M``; the rate is ``W log2(1 + rss / (rss + sigma2))``.
    """
    if bandwidth <= 0.0 or sigma2 <= 0.0:
        raise ValueError("bandwidth and noise power must be positive")
    d = max(dist(x, y), RATE_MIN_DISTANCE_M)
    rss = d ** (-alpha_p)
    return bandwidth * math.log2(1.0 + rss / (rss + sigma2))


# ---------------------------------------------------------------------------
# voyage family


def lambda_increasing(t: int, T: int) -> float:
    """Goal weight ``t / T``; reaches 1 on the final slot."""
    if not 1 <= t <= T:
        raise ValueError(f"slot {t} outside 1..{T}")
    return t / T


def directional_weight(eta: float, theta: float) -> float:
    """Goal weight ``1 - eta * cos^2(theta / 2)`` for current strength/angle."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"relative strength {eta} outside [0, 1]")
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError(f"angle {theta} outside [0, pi]")
    c = math.cos(theta / 2.0)
    return 1.0 - eta * c * c


def lambda_direction(d: Point, x_hat: Point, v_o: Vector, v_o_max: float) -> float:
    """Goal weight from the current's strength and its angle to the goal.

    Degenerate geometry (goal reached, or still water) uses angle pi, i.e.
    the fully goal-seeking weight 1.  Strength is clamped at 1 in case a
    measured current exceeds the historical maximum.
    """
    if v_o_max <= 0.0:
        raise ValueError("historical max current must be positive")
    eta = min(norm(v_o) / v_o_max, 1.0)
    heading = sub(d, x_hat)
    if norm(heading) == 0.0 or norm(v_o) == 0.0:
        theta = math.pi
    else:
        theta = angle_between(heading, v_o)
    return directional_weight(eta, theta)


def alpha_schedule(beta: float, delta: float, T: int, eta: float, theta: float) -> float:
    """Relative-speed throttle ``exp(-beta (delta/T + eta cos(theta/2)))``."""
    if beta < 0.0 or delta < 0.0 or T < 1:
        raise ValueError("need beta >= 0, delta >= 0, T >= 1")
    if not 0.0 <= eta <= 1.0 or not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError("eta in [0,1] and theta in [0,pi] required")
    return math.exp(-beta * (delta / T + eta * math.cos(theta / 2.0)))


def ocean_utility(x: Point, x_prev: Point, d: Point, v_o: Vector, lam: float) -> float:
    """Blend of squared goal distance and drift against the current.

    ``-lam * |x - d|^2 - (1 - lam) * <x_prev - x, v_o>`` with the linear term
    rewarding displacement along the current.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"goal weight {lam} outside [0, 1]")
    gd = dist(x, d)
    drift = dot(sub(x_prev, x), v_o)
    return -lam * gd * gd - (1.0 - lam) * drift


def ocean_gradient(x: Point, d: Point, v_o: Vector, lam: float) -> Vector:
    """Gradient of :func:`ocean_utility` in ``x``: ``-2 lam (x-d) + (1-lam) v_o``."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"goal weight {lam} outside [0, 1]")
    return (
        -2.0 * lam * (x[0] - d[0]) + (1.0 - lam) * v_o[0],
        -2.0 * lam * (x[1] - d[1]) + (1.0 - lam) * v_o[1],
    )


def ocean_step_size(
    grad_tilde: Vector,
    v_o: Vector,
    alpha_t: float,
    v_max: float,
    L: float = OCEAN_SMOOTHNESS,
    margin: float = 1.01,
) -> float:
    """Learning rate keeping the relative speed within ``alpha_t * v_max``.

    Solves ``(|v_o|^2 - alpha^2 v^2) g^2 - 2 <grad, v_o> g + |grad|^2 = 0``
    for its unique positive root (the rate at which the cap binds exactly)
    and clamps upward to ``margin * L``; larger rates shrink the step and
    stay feasible.  Requires ``alpha_t * v_max > |v_o|``, else no positive
    root exists and :class:`RootExistence` is raised.
    """
    speed_cap = alpha_t * v_max
    vo_norm = norm(v_o)
    if speed_cap <= vo_norm:
        raise RootExistence(alpha_t, vo_norm / v_max)
    g2 = norm_sq(grad_tilde)
    if g2 == 0.0:
        return margin * L
    a = vo_norm * vo_norm - speed_cap * speed_cap
    b = 2.0 * dot(grad_tilde, v_o)
    disc = b * b - 4.0 * a * g2
    # a < 0 and g2 > 0 force disc > 0 and exactly one positive root
    root = (b - math.sqrt(disc)) / (2.0 * a)
    return max(root, margin * L)
