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

The scalar functions serve the per-slot online loop.  For the offline
benchmark, :class:`CommuteUtilities` and :class:`VoyageUtilities` hold one
frozen utility per slot as arrays and evaluate all slots at once; each also
gives its worst-case gradient variation in closed form, and the Huber and
voyage kinds give the curvature and Fenchel-Young residual of their
conjugates, which tighten the offline duality gap.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence, Union

import numpy as np

from .errors import EmptyStepInterval, HorizonMismatch, RootExistence
from .geom import Point, Vector, dist, dot, norm, norm_sq, sub
from .sets import Box2D

# Distance floor (meters) below which the far-field path-loss model of
# `rate` is invalid and the distance is clamped.
RATE_MIN_DISTANCE_M = 1.0

# Lipschitz constants of the families' gradients (their ``smoothness``).  The
# commute's is mu + (1 - mu) = 1, since the clamp P_v is nonexpansive.
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


def huber_value(d: float, v_max: float, mu: float) -> float:
    """Robust distance penalty: quadratic near, blended linear/quadratic far.

    Continuously differentiable at ``d == v_max``.
    """
    if d < 0.0:
        raise ValueError(f"distance {d} must be nonnegative")
    if d <= v_max:
        return 0.5 * d * d
    offset = (1.0 - mu) * v_max * v_max / 2.0
    return v_max * (1.0 - mu) * d + 0.5 * mu * d * d - offset


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
    # radial clamp of the pull into the disc of radius v_max, the scalar
    # form of v_max / max(|pull|, v_max) in CommuteUtilities.gradient_array
    n = norm(pull)
    s = v_max / n if n > v_max else 1.0
    return (
        mu * pull[0] + (1.0 - mu) * (pull[0] * s),
        mu * pull[1] + (1.0 - mu) * (pull[1] * s),
    )


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


def current_strength_angle(
    d: Point, x_hat: Point, v_o: Vector, v_o_max: float
) -> tuple[float, float]:
    """Relative strength ``eta`` of the current and its angle ``theta`` to the goal.

    Degenerate geometry (goal reached, or still water) uses angle pi, i.e.
    the fully goal-seeking weight 1.  Strength is clamped at 1 in case a
    measured current exceeds the historical maximum.
    """
    if v_o_max <= 0.0:
        raise ValueError("historical max current must be positive")
    n_vo = math.hypot(v_o[0], v_o[1])
    eta = min(n_vo / v_o_max, 1.0)
    h0, h1 = d[0] - x_hat[0], d[1] - x_hat[1]
    n_h = math.hypot(h0, h1)
    if n_h == 0.0 or n_vo == 0.0:
        return eta, math.pi
    c = (h0 * v_o[0] + h1 * v_o[1]) / (n_h * n_vo)
    return eta, math.acos(min(1.0, max(-1.0, c)))


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


# ---------------------------------------------------------------------------
# whole-horizon families: one frozen utility per slot, evaluated over (T, 2)
# arrays by the offline benchmark


# slots per block when a family's arrays are converted to floats for evaluation
_EVAL_BLOCK = 512


def _check_horizon(points, horizon: int) -> None:
    if len(points) != horizon:
        raise HorizonMismatch(f"{len(points)} points for horizon {horizon}")


def _pad(arrays: Sequence[np.ndarray], tmax: int) -> np.ndarray:
    """Stack per-row arrays along a new leading axis, zero-padded to ``tmax`` slots."""
    out = np.zeros((len(arrays), tmax) + arrays[0].shape[1:])
    for row, a in zip(out, arrays):
        row[: len(a)] = a
    return out


def row_scalars(values: list[float]):
    """Per-row scalars for ``(R, tmax, 2)`` arrays.

    One float when all rows share it (a Python float is the cheaper
    operand), else an ``(R, 1, 1)`` array; the arithmetic is the same.
    """
    if values.count(values[0]) == len(values):
        return values[0]
    return np.array(values, dtype=float)[:, None, None]


class _Family:
    """What both families derive from their per-slot forms: the values and the total."""

    def evaluate(self, points) -> list[float]:
        """Slot ``t``'s utility at ``points[t]``, through the family's scalar utility."""
        _check_horizon(points, self.horizon)
        return self._evaluate(points)

    def total(self, points) -> float:
        _check_horizon(points, self.horizon)
        terms = self.slot_terms(np.asarray(points, dtype=float))
        return self.total_scale * float(np.add.reduce(terms, axis=None))


class CommuteUtilities(_Family):
    """Commute utilities ``d2d_utility(x, leads[t], v, mu, kind)``, t = 0..T-1.

    ``v`` is the per-slot displacement cap and ``mu`` the curvature of the
    robust penalty.  The array gradient is the pull ``leads - x`` for the
    squared kind; for the Huber kind it is :func:`d2d_gradient`'s formula,
    equal to it slot by slot up to rounding (``np.hypot`` and ``math.hypot``
    may differ in the last bit).  Stacked (:meth:`stack`), the leads are
    ``(R, tmax, 2)``, and ``v``/``mu`` are floats shared by the rows or
    ``(R, 1, 1)`` arrays.
    """

    smoothness = D2D_SMOOTHNESS

    def __init__(self, leads, v, mu, kind: str = "squared"):
        if kind not in ("squared", "huber"):
            raise ValueError(f"unknown utility kind {kind!r}")
        self.leads = np.asarray(leads, dtype=float)
        self.v = v
        self.mu = mu
        self.kind = kind
        self.stack_key = ("commute", kind)
        self.total_scale = -0.5 if kind == "squared" else -1.0
        # the Huber penalty's constants, grouped as huber_value groups them
        self._one_minus_mu = 1.0 - mu
        self._lin = v * (1.0 - mu)
        self._half_mu = 0.5 * mu
        self._offset = (1.0 - mu) * v * v / 2.0

    @classmethod
    def stack(cls, families: Sequence["CommuteUtilities"], tmax: int) -> "CommuteUtilities":
        """The families as the rows of one, their leads zero-padded to ``tmax`` slots."""
        leads = _pad([f.leads for f in families], tmax)
        v = row_scalars([f.v for f in families])
        mu = row_scalars([f.mu for f in families])
        return cls(leads, v, mu, families[0].kind)

    @property
    def horizon(self) -> int:
        return len(self.leads)

    @property
    def values(self) -> list[Callable[[Point], float]]:
        """Slot ``t``'s utility as a callable, through the scalar :func:`d2d_utility`."""
        return [
            partial(d2d_utility, ell=e, v_max=self.v, mu=self.mu, kind=self.kind)
            for e in self.leads.tolist()
        ]

    def _evaluate(self, points) -> list[float]:
        """Slot ``t``'s utility at ``points[t]``, through the scalar :func:`d2d_utility`."""
        v, mu, kind = self.v, self.mu, self.kind
        return [d2d_utility(p, e, v, mu, kind) for p, e in zip(points, self.leads.tolist())]

    def variation_terms(self, region: Box2D) -> tuple[list[float], bool]:
        """Per pair ``t``, the maximum over ``region`` of ``|grad U_{t+1} - grad U_t|^2``.

        The squared kind's difference is the lead step ``b`` at every ``x``.
        ``P_v`` is nonexpansive with outputs of norm at most ``v``, so the
        Huber kind's is at most ``mu |b| + (1 - mu) min(|b|, 2 v)`` long,
        attained at the leads' midpoint.  The flag says whether every maximum
        is attained in ``region``; if not, the terms are upper bounds.
        """
        steps = (self.leads[1:] - self.leads[:-1]).tolist()
        if self.kind == "squared":
            return [b[0] ** 2 + b[1] ** 2 for b in steps], True
        mu, cap = self.mu, 2.0 * self.v
        norms = [math.hypot(*b) for b in steps]
        terms = [(mu * n + self._one_minus_mu * min(n, cap)) ** 2 for n in norms]
        mids = (0.5 * (self.leads[1:] + self.leads[:-1])).tolist()
        return terms, all(region.contains(m) for m in mids)

    def slot_terms(self, x: np.ndarray) -> np.ndarray:
        """Per-slot terms whose sum times :attr:`total_scale` is the total."""
        d = x - self.leads
        if self.kind == "squared":
            return d * d
        # the elementwise arithmetic of huber_value; np.hypot may differ from
        # math.hypot in the last bit, but the total only steers the ascent and
        # its pairwise sum rounds differently from a per-slot sum anyway
        n = np.hypot(d[..., :1], d[..., 1:])
        far = self._lin * n + self._half_mu * n * n - self._offset
        return np.where(n <= self.v, 0.5 * n * n, far)

    def gradient_array(self, x: np.ndarray) -> np.ndarray:
        pull = self.leads - x
        if self.kind == "squared":
            return pull
        n = np.hypot(pull[..., :1], pull[..., 1:])
        # v / max(n, v) is exactly 1 inside the cap
        capped = pull * (self.v / np.maximum(n, self.v))
        return self.mu * pull + self._one_minus_mu * capped

    def curvature(self, grad: np.ndarray) -> np.ndarray | None:
        """Per slot, the curvature of the conjugate ``U_t*`` at ``grad``, the gradient at ``x``.

        ``None`` for the squared kind, whose conjugate ``0.5 |a|^2 - <a, lead>``
        has curvature 1 at every slot.  The Huber kind's is 1 where
        ``|grad| <= v`` and ``1 / mu`` beyond, the inverse of the penalty's
        least curvature there.
        """
        if self.kind == "squared":
            return None
        n = np.hypot(grad[..., :1], grad[..., 1:])
        return np.where(n <= self.v, 1.0, 1.0 / self.mu)[..., 0]

    def fenchel_young(self, x: np.ndarray, grad: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Per slot, ``U_t*(a) - U_t(x) + <a, x> >= 0`` at ``a = grad + delta`` (Huber kind).

        ``grad`` is the gradient at ``x``, where the residual is zero.  With
        ``h`` the penalty, ``U_t*(a) = h*(|a|) - <a, lead>``, where ``h*(s)``
        is ``s^2 / 2`` up to ``v`` and ``mu d^2 / 2 + (1 - mu) v^2 / 2`` beyond,
        ``d = (s - (1 - mu) v) / mu``; so the residual is
        ``h*(|a|) + h(|x - lead|) + <a, x - lead>``.
        """
        a = grad + delta
        s = np.hypot(a[..., :1], a[..., 1:])
        d = (s - self._lin) / self.mu
        conj = np.where(s <= self.v, 0.5 * s * s, self._half_mu * d * d + self._offset)
        e = x - self.leads
        return (conj + self.slot_terms(x))[..., 0] + (a[..., 0] * e[..., 0] + a[..., 1] * e[..., 1])


class VoyageUtilities(_Family):
    """Voyage utilities ``ocean_utility(x, prev[t], goal[t], current[t], lam[t])``.

    ``lam`` is ``(T,)``; ``goal``, ``current`` and ``prev`` are ``(T, 2)``.
    Stacked (:meth:`stack`), each gains a leading row axis.
    """

    stack_key = ("voyage",)
    total_scale = -1.0
    smoothness = OCEAN_SMOOTHNESS

    def __init__(self, lam, goal, current, prev):
        self.lam = np.asarray(lam, dtype=float)
        self.goal = np.asarray(goal, dtype=float)
        self.current = np.asarray(current, dtype=float)
        self.prev = np.asarray(prev, dtype=float)
        # per-slot constants of ocean_gradient: -2 lam, 1 - lam, (1 - lam) current;
        # -2 lam is stored per coordinate, as a broadcast along the short last
        # axis costs more than the arithmetic
        self._one_minus_lam = 1.0 - self.lam
        self._neg2lam = -2.0 * np.repeat(self.lam[..., None], 2, axis=-1)
        self._drift = self._one_minus_lam[..., None] * self.current

    @classmethod
    def stack(cls, families: Sequence["VoyageUtilities"], tmax: int) -> "VoyageUtilities":
        """The families as the rows of one, their arrays zero-padded to ``tmax`` slots."""
        names = ("lam", "goal", "current", "prev")
        return cls(*(_pad([getattr(f, name) for f in families], tmax) for name in names))

    @property
    def horizon(self) -> int:
        return len(self.lam)

    @property
    def values(self) -> list[Callable[[Point], float]]:
        """Slot ``t``'s utility as a callable, through the scalar :func:`ocean_utility`."""
        return [
            partial(ocean_utility, x_prev=xp, d=g, v_o=vo, lam=lam)
            for lam, g, vo, xp in zip(
                self.lam.tolist(), self.goal.tolist(), self.current.tolist(), self.prev.tolist()
            )
        ]

    def _evaluate(self, points) -> list[float]:
        """Slot ``t``'s utility at ``points[t]``, through the scalar :func:`ocean_utility`.

        The arrays become Python floats :data:`_EVAL_BLOCK` slots at a time, so
        a long horizon never holds all four of them as floats at once.
        """
        out: list[float] = []
        for i in range(0, len(points), _EVAL_BLOCK):
            s = slice(i, i + _EVAL_BLOCK)
            out += map(
                ocean_utility, points[s], self.prev[s].tolist(), self.goal[s].tolist(),
                self.current[s].tolist(), self.lam[s].tolist(),
            )
        return out

    def variation_terms(self, region: Box2D) -> tuple[list[float], bool]:
        """Per pair ``t``, the maximum over ``region`` of ``|grad U_{t+1} - grad U_t|^2``.

        The difference is ``a[t] x + b[t]``, affine in ``x``, so its convex
        squared norm peaks at a vertex of the box: every term is exact.
        """
        lam = self.lam
        pull = lam[:, None] * self.goal
        drift = (1.0 - lam)[:, None] * self.current
        a = -2.0 * (lam[1:] - lam[:-1])
        b = 2.0 * (pull[1:] - pull[:-1]) + drift[1:] - drift[:-1]
        corners = region.vertices()
        return [
            max((a_t * c[0] + b_t[0]) ** 2 + (a_t * c[1] + b_t[1]) ** 2 for c in corners)
            for a_t, b_t in zip(a.tolist(), b.tolist())
        ], True

    def slot_terms(self, x: np.ndarray) -> np.ndarray:
        """Per-slot terms whose sum times :attr:`total_scale` is the total."""
        # the pairs add as np.sum(..., axis=-1) adds them, up to the sign of a
        # zero sum, which ``quad + drift`` drops again (quad is never -0.0)
        d = x - self.goal
        dd = d * d
        p = (self.prev - x) * self.current
        quad = self.lam * (dd[..., 0] + dd[..., 1])
        drift = self._one_minus_lam * (p[..., 0] + p[..., 1])
        return quad + drift

    def gradient_array(self, x: np.ndarray) -> np.ndarray:
        return self._neg2lam * (x - self.goal) + self._drift

    def _over_lam(self, num) -> np.ndarray:
        """``num / lam`` per slot, infinite where ``lam`` is 0."""
        out = np.full(self.lam.shape, math.inf)
        return np.divide(num, self.lam, out=out, where=self.lam > 0.0)

    def curvature(self, grad: np.ndarray) -> np.ndarray:
        """Per slot, the conjugate's curvature ``1 / (2 lam)``; infinite at ``lam = 0``.

        ``U_t*(a) = |b|^2 / (4 lam) + <b, goal> - <drift, prev>`` with ``b =
        drift - a``, ``drift = (1 - lam) current``.
        """
        return self._over_lam(0.5)

    def fenchel_young(self, x: np.ndarray, grad: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Per slot, ``U_t*(a) - U_t(x) + <a, x> >= 0`` at ``a = grad + delta``.

        ``grad`` is the gradient at ``x``; the quadratic's residual is
        ``|a - grad|^2 / (4 lam)``.  At ``lam = 0`` the utility is linear and its
        conjugate is infinite off the gradient, so the residual counts as
        infinite.
        """
        return self._over_lam(0.25 * (delta[..., 0] ** 2 + delta[..., 1] ** 2))


Utilities = Union[CommuteUtilities, VoyageUtilities]
