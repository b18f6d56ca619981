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

The drivers call one formula per per-slot quantity: the leading path, the
link rate, the goal weight ``t / T``, the voyage's directional weight and
throttle (:func:`voyage_weights`), and the scalar gradients and step sizes.
Those run once per slot, so they do their 2-vector arithmetic inline
(``math.hypot`` and products, with the operands and the order of
:mod:`~trajsim.geom`'s ``sub``, ``norm``, ``norm_sq`` and ``dot``) instead of
calling the helpers.  The scalar values are test references and back
``values``.
:class:`CommuteUtilities` and :class:`VoyageUtilities` hold one frozen
utility per slot as arrays and evaluate all slots at once, for the trace,
the regret and the offline benchmark alike; each also gives its worst-case
gradient variation in closed form, the curvature and Fenchel-Young residual
of its conjugates, which tighten the offline duality gap, and its Hessian
blocks, for the offline Newton finish; the squared commute also gives the
best placement of rigid runs of its points.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence, Union

import numpy as np

from .errors import EmptyStepInterval, HorizonMismatch, RootExistence
from .geom import Point, Vector, dist, dot, mapped, powers, sub
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


def _within(value, lo, hi) -> bool:
    """Whether ``value``, a number or an array, lies in ``[lo, hi]`` throughout; NaN does not."""
    if isinstance(value, np.ndarray):
        return bool(np.all((lo <= value) & (value <= hi)))
    return lo <= value <= hi


def leading_path(y, d, lam):
    """Blend ``lam * y + (1 - lam) * d`` of peer position and destination.

    ``y`` and ``d`` are points and ``lam`` a float, or each is a pair of
    coordinate arrays (such as an ``(n, 2)`` array's transpose) and ``lam``
    a float or an array of one weight per point; the blend is the same pair.
    """
    if not _within(lam, 0.0, 1.0):
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
    p0, p1 = ell[0] - x[0], ell[1] - x[1]
    # radial clamp of the pull into the disc of radius v_max, the scalar
    # form of v_max / max(|pull|, v_max) in CommuteUtilities.gradient_array
    n = math.hypot(p0, p1)
    s = v_max / n if n > v_max else 1.0
    return (mu * p0 + (1.0 - mu) * (p0 * s), mu * p1 + (1.0 - mu) * (p1 * s))


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
    holds its position; ``margin * L`` is returned.  With the other
    arguments fixed, the rate is a function of ``gbar`` alone, so a caller
    may keep it until ``gbar`` changes.
    """
    if gbar < 0.0:
        raise ValueError("gbar must be nonnegative")
    if not 0.0 < alpha_min <= alpha_t <= 1.0:
        raise ValueError(f"need 0 < alpha_min <= alpha_t <= 1, got {alpha_min}, {alpha_t}")
    if gbar == 0.0:
        return margin * L
    lower = gbar / (v_max * alpha_t)
    lower = L if L > lower else lower  # max(lower, L)
    upper = gbar / (v_max * alpha_min)
    chosen = margin * lower
    if chosen >= upper:
        raise EmptyStepInterval(lower, upper, chosen)
    return chosen


def rate(x, y, alpha_p: float, bandwidth: float, sigma2: float) -> np.ndarray:
    """Achievable link rate between the paired rows of ``(n, 2)`` arrays, in bits/s.

    Path loss ``d^-alpha_p`` with the distance clamped below at
    ``RATE_MIN_DISTANCE_M``; the rate is ``W log2(1 + rss / (rss + sigma2))``,
    with ``math.hypot``, ``**`` and ``math.log2`` mapped over the pairs.
    """
    if bandwidth <= 0.0 or sigma2 <= 0.0:
        raise ValueError("bandwidth and noise power must be positive")
    with np.errstate(all="ignore"):  # as quiet as float arithmetic
        d = np.maximum(mapped(math.hypot, *np.subtract(x, y).T), RATE_MIN_DISTANCE_M)
        rss = powers(d, -alpha_p)
        return bandwidth * mapped(math.log2, 1.0 + rss / (rss + sigma2))


# ---------------------------------------------------------------------------
# voyage family


def lambda_increasing(t, T: int):
    """Goal weight ``t / T`` of slot ``t``, an int or an int array; reaches 1 on the final slot."""
    if not _within(t, 1, T):
        raise ValueError(f"slot {t} outside 1..{T}")
    return t / T


def voyage_weights(
    goal: Point, x_hat: Point, v_o: Vector, v_o_max: float, beta: float, delta: int, T: int
) -> tuple[float, float]:
    """The voyage's directional goal weight and relative-speed throttle at ``x_hat``.

    ``eta = min(|v_o| / v_o_max, 1)`` is the current's strength against the
    historical maximum (the two share a unit, such as m/slot) and ``theta``
    its angle to the heading toward ``goal``.  From one ``c = cos(theta /
    2)``, the weight is ``1 - eta c^2`` and the throttle ``exp(-beta (delta
    / T + eta c))``.  Degenerate geometry (goal reached, or still water)
    uses angle pi, i.e. the fully goal-seeking weight 1.
    """
    if v_o_max <= 0.0:
        raise ValueError("historical max current must be positive")
    n_vo = math.hypot(v_o[0], v_o[1])
    eta = n_vo / v_o_max
    eta = 1.0 if 1.0 < eta else eta  # min(eta, 1.0)
    h0, h1 = goal[0] - x_hat[0], goal[1] - x_hat[1]
    n_h = math.hypot(h0, h1)
    if n_h == 0.0 or n_vo == 0.0:
        theta = math.pi
    else:
        c = (h0 * v_o[0] + h1 * v_o[1]) / (n_h * n_vo)
        c = c if c > -1.0 else -1.0  # min(1.0, max(-1.0, c))
        theta = math.acos(c if c < 1.0 else 1.0)
    half = math.cos(theta / 2.0)
    return 1.0 - eta * half * half, math.exp(-beta * (delta / T + eta * half))


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
    (g0, g1), (o0, o1) = grad_tilde, v_o
    speed_cap = alpha_t * v_max
    vo_norm = math.hypot(o0, o1)
    if speed_cap <= vo_norm:
        raise RootExistence(alpha_t, vo_norm / v_max)
    g2 = g0 * g0 + g1 * g1
    if g2 == 0.0:
        return margin * L
    a = vo_norm * vo_norm - speed_cap * speed_cap
    b = 2.0 * (g0 * o0 + g1 * o1)
    disc = b * b - 4.0 * a * g2
    # a < 0 and g2 > 0 force disc > 0 and exactly one positive root
    root, floor = (b - math.sqrt(disc)) / (2.0 * a), margin * L
    return floor if floor > root else root  # max(root, floor)


# ---------------------------------------------------------------------------
# whole-horizon families: one frozen utility per slot, evaluated over (T, 2)
# arrays for the trace, the regret and the offline benchmark


def _constant(value) -> np.ndarray:
    """``value`` as a read-only float array, for the array kernels' operands.

    A ufunc converts a Python float operand anew on each call, which costs
    about as much as the arithmetic of a 128-slot array.
    """
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


_HALF = _constant(0.5)


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
        """Each slot's share of :meth:`total` at ``points``, a point list or ``(T, 2)`` array."""
        _check_horizon(points, self.horizon)
        terms = self.slot_terms(np.asarray(points, dtype=float))
        return (self.total_scale * terms.reshape(len(terms), -1).sum(axis=1)).tolist()

    def total(self, points) -> float:
        _check_horizon(points, self.horizon)
        terms = self.slot_terms(np.asarray(points, dtype=float))
        return self.total_scale * float(np.add.reduce(terms, axis=None))


class CommuteUtilities(_Family):
    """Commute utilities ``d2d_utility(x, leads[t], v, mu, kind)``, t = 0..T-1.

    ``v`` is the per-slot displacement cap and ``mu`` the curvature of the
    robust penalty.  The values and the array gradient agree with
    :func:`d2d_utility` and :func:`d2d_gradient` to rounding, not bit for bit
    (``np.hypot`` and ``math.hypot`` may differ in the last bit; the squared
    value sums squares where the scalar one squares a ``hypot``).  The array
    gradient is the pull ``leads - x`` for the squared kind and
    :func:`d2d_gradient`'s formula for the Huber kind.  Stacked
    (:meth:`stack`), the leads are ``(R, tmax, 2)``, and ``v``/``mu`` are
    floats shared by the rows or ``(R, 1, 1)`` arrays.
    """

    smoothness = D2D_SMOOTHNESS
    _work: tuple = ()

    def __init__(self, leads, v, mu, kind: str = "squared"):
        if kind not in ("squared", "huber"):
            raise ValueError(f"unknown utility kind {kind!r}")
        self.leads = np.asarray(leads, dtype=float)
        self.v = v
        self.mu = mu
        self.kind = kind
        self.stack_key = ("commute", kind)
        self.total_scale = -0.5 if kind == "squared" else -1.0
        # the kernels' constants, the Huber penalty's grouped as huber_value
        # groups them
        self._v, self._mu, self._one_minus_mu, self._lin, self._half_mu, self._offset = map(
            _constant, (v, mu, 1.0 - mu, v * (1.0 - mu), 0.5 * mu, (1.0 - mu) * v * v / 2.0)
        )

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
        """The benchmark's per-slot :func:`d2d_utility` callables, until it reads evaluate."""
        return [
            partial(d2d_utility, ell=e, v_max=self.v, mu=self.mu, kind=self.kind)
            for e in self.leads.tolist()
        ]

    def variation_terms(self, region: Box2D) -> tuple[list[float], bool]:
        """Per pair ``t``, the maximum over ``region`` of ``|grad U_{t+1} - grad U_t|^2``.

        The squared kind's difference is the lead step ``b`` at every ``x``.
        ``P_v`` is nonexpansive with outputs of norm at most ``v``, so the
        Huber kind's is at most ``mu |b| + (1 - mu) min(|b|, 2 v)`` long,
        attained at the leads' midpoint.  The flag says whether every maximum
        is attained in ``region``; if not, the terms are upper bounds.

        One array pass with the per-pair formula's bits: numpy's ``+ - *``,
        ``math.hypot`` and ``**`` mapped over the pairs, and the builtin
        ``min(n, cap)`` as the comparison it makes.
        """
        with np.errstate(all="ignore"):  # as quiet as float arithmetic
            b = self.leads[1:] - self.leads[:-1]
            if self.kind == "squared":
                return (powers(b[:, 0], 2) + powers(b[:, 1], 2)).tolist(), True
            mu, cap = self.mu, 2.0 * self.v
            n = mapped(math.hypot, b[:, 0], b[:, 1])
            terms = powers(mu * n + (1.0 - mu) * np.where(cap < n, cap, n), 2)
            m = 0.5 * (self.leads[1:] + self.leads[:-1])
        (lo0, lo1), (hi0, hi1) = region.lo, region.hi
        inside = (lo0 <= m[:, 0]) & (m[:, 0] <= hi0) & (lo1 <= m[:, 1]) & (m[:, 1] <= hi1)
        return terms.tolist(), bool(inside.all())

    def slot_terms(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-slot terms whose sum times :attr:`total_scale` is the total.

        Written into ``out`` if given, as a ufunc writes: ``x``'s shape for
        the squared kind, with a last axis of 1 for the Huber kind.
        """
        if self.kind == "squared":
            d = np.subtract(x, self.leads, out=out)
            return np.multiply(d, d, out=d)
        # the elementwise arithmetic of huber_value, with np.hypot, which may
        # differ from math.hypot in the last bit
        d, d0, d1, n, t, inside = self._scratch(x.shape)
        np.subtract(x, self.leads, out=d)
        np.hypot(d0, d1, out=n)
        far = np.multiply(self._lin, n, out=out)
        np.add(far, np.multiply(np.multiply(self._half_mu, n, out=t), n, out=t), out=far)
        np.subtract(far, self._offset, out=far)
        near = np.multiply(np.multiply(_HALF, n, out=t), n, out=t)
        np.copyto(far, near, where=np.less_equal(n, self._v, out=inside))
        return far

    def gradient_array(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The gradient at each of ``x``'s points, written into ``out`` if given."""
        if self.kind == "squared":
            return np.subtract(self.leads, x, out=out)
        pull, p0, p1, n = self._scratch(x.shape)[:4]
        np.subtract(self.leads, x, out=pull)
        np.hypot(p0, p1, out=n)
        # v / max(n, v) is exactly 1 inside the cap
        scale = np.divide(self._v, np.maximum(n, self._v, out=n), out=n)
        capped = np.multiply(pull, scale, out=out)
        np.multiply(self._one_minus_mu, capped, out=capped)
        return np.add(np.multiply(self._mu, pull, out=pull), capped, out=capped)

    def _scratch(self, shape: tuple) -> tuple:
        """The Huber kernels' scratch for inputs of ``shape``, kept for the next call.

        A point-shaped difference, its two coordinates, the distances, a
        spare and a mask: the offline ascent calls the kernels on one shape
        many times over.  What a kernel returns is never scratch.
        """
        if not self._work or self._work[0].shape != shape:
            d = np.empty(shape)
            n = np.empty(shape[:-1] + (1,))
            spare, mask = np.empty_like(n), np.empty(n.shape, dtype=bool)
            self._work = (d, d[..., :1], d[..., 1:], n, spare, mask)
        return self._work

    def curvature(self, grad: np.ndarray) -> np.ndarray | None:
        """Per slot, the curvature of the conjugate ``U_t*`` at ``grad``, the gradient at ``x``.

        ``None`` for the squared kind, whose conjugate ``0.5 |a|^2 - <a, lead>``
        has curvature 1 at every slot, so that :meth:`rigid_optimum` places
        its runs by plain means.  The Huber kind's is 1 where ``|grad| <= v``
        and ``1 / mu`` beyond, the inverse of the penalty's least curvature
        there.
        """
        if self.kind == "squared":
            return None
        n = np.hypot(grad[..., :1], grad[..., 1:])
        return np.where(n <= self.v, 1.0, 1.0 / self.mu)[..., 0]

    def hessian_blocks(self, x: np.ndarray) -> np.ndarray:
        """Per point of ``x`` (one row), its slot's Hessian ``[[a, b], [b, c]]`` as ``(a, b, c)``.

        ``-I`` for the squared kind, and for the Huber kind within ``v`` of
        the lead; beyond, ``-(mu I + (1 - mu) (v / n) (I - d d^T / n^2))``
        with ``d = x - lead`` and ``n = |d|``.
        """
        out = np.zeros(x.shape[:-1] + (3,))
        out[:, 0] = out[:, 2] = -1.0
        if self.kind == "huber":
            d = x - self.leads
            n = np.hypot(d[:, 0], d[:, 1])
            far = n > self.v
            mu, n, (d0, d1) = self.mu, n[far], d[far].T
            k = (1.0 - mu) * self.v / (n * n * n)
            out[far] = np.column_stack((-mu - k * d1 * d1, k * d0 * d1, -mu - k * d0 * d0))
        return out

    def fenchel_young(
        self,
        x: np.ndarray,
        grad: np.ndarray,
        delta: np.ndarray,
        terms: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per slot, ``U_t*(a) - U_t(x) + <a, x> >= 0`` at ``a = grad + delta``.

        ``grad`` is the gradient at ``x``, where the residual is zero.  The
        squared kind's residual is ``|delta|^2 / 2``.  With ``h`` the Huber
        penalty, ``U_t*(a) = h*(|a|) - <a, lead>``, where ``h*(s)`` is ``s^2 /
        2`` up to ``v`` and ``mu d^2 / 2 + (1 - mu) v^2 / 2`` beyond, ``d = (s -
        (1 - mu) v) / mu``; so the residual is ``h*(|a|) + h(|x - lead|) + <a,
        x - lead>``.  ``terms`` is :meth:`slot_terms` at ``x``, which the
        Huber kind reads as ``h(|x - lead|)``.  Written into ``out``, of
        ``x``'s shape less its last axis, if given.
        """
        if self.kind == "squared":
            sq = np.multiply(delta, delta)
            half = np.add(sq[..., 0], sq[..., 1], out=out)
            return np.multiply(_HALF, half, out=half)
        a = np.add(grad, delta)
        s = np.hypot(a[..., :1], a[..., 1:])
        d = np.divide(np.subtract(s, self._lin), self._mu)
        conj = np.multiply(self._half_mu, d)
        np.add(np.multiply(conj, d, out=conj), self._offset, out=conj)
        near = np.multiply(_HALF, s)
        np.multiply(near, s, out=near)
        np.copyto(conj, near, where=s <= self._v)
        np.add(conj, terms, out=conj)
        e = x - self.leads
        inner = np.multiply(a[..., 0], e[..., 0], out=out)
        np.add(inner, np.multiply(a[..., 1], e[..., 1]), out=inner)
        return np.add(conj[..., 0], inner, out=inner)

    def rigid_optimum(
        self, x: np.ndarray, edges: np.ndarray, fixed: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``x`` with each run of points moved as one rigid body to its best place (squared kind).

        The points, flattened over the rows, form runs: run ``i`` holds the
        points from flat index ``edges[i]`` up to ``edges[i + 1]``, and the
        last edge is the number of points.  A run translated by ``m`` scores
        best at ``m`` the mean of its pulls ``lead - x``, which puts its
        anchor at the mean of ``lead - offset`` over the run.  The runs
        numbered in ``fixed`` stay.  Written into ``out``, of ``x``'s shape.
        """
        pull = np.subtract(self.leads, x, out=out)
        sums = np.add.reduceat(pull.reshape(-1, 2), edges[:-1], axis=0)
        counts = np.subtract(edges[1:], edges[:-1])
        sums[fixed] = 0.0
        shift = np.repeat(np.divide(sums, counts[:, None], out=sums), counts, axis=0)
        return np.add(x, shift.reshape(x.shape), out=out)


class VoyageUtilities(_Family):
    """Voyage utilities ``ocean_utility(x, prev[t], goal[t], current[t], lam[t])``.

    ``lam`` is ``(T,)``; ``goal``, ``current`` and ``prev`` are ``(T, 2)``.
    The values agree with :func:`ocean_utility` to rounding.  Stacked
    (:meth:`stack`), each gains a leading row axis.
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
        self._lam_positive = self.lam > 0.0

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
        """The benchmark's per-slot :func:`ocean_utility` callables, until it reads evaluate."""
        return [
            partial(ocean_utility, x_prev=xp, d=g, v_o=vo, lam=lam)
            for lam, g, vo, xp in zip(
                self.lam.tolist(), self.goal.tolist(), self.current.tolist(), self.prev.tolist()
            )
        ]

    def variation_terms(self, region: Box2D) -> tuple[list[float], bool]:
        """Per pair ``t``, the maximum over ``region`` of ``|grad U_{t+1} - grad U_t|^2``.

        The difference is ``a[t] x + b[t]``, affine in ``x``, so its convex
        squared norm peaks at a vertex of the box: every term is exact.

        One array pass with the per-pair formula's bits: numpy's ``+ - *``,
        ``**`` mapped over the pairs, and the builtin ``max`` over the
        vertices as the comparisons it makes.
        """
        lam = self.lam
        with np.errstate(all="ignore"):  # as quiet as float arithmetic
            pull = lam[:, None] * self.goal
            drift = (1.0 - lam)[:, None] * self.current
            a = -2.0 * (lam[1:] - lam[:-1])
            b = 2.0 * (pull[1:] - pull[:-1]) + drift[1:] - drift[:-1]
            best = None
            for c0, c1 in region.vertices():
                term = powers(a * c0 + b[:, 0], 2) + powers(a * c1 + b[:, 1], 2)
                best = term if best is None else np.where(term > best, term, best)
        return best.tolist(), True

    def slot_terms(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-slot terms whose sum times :attr:`total_scale` is the total.

        Written into ``out``, of ``x``'s shape less its last axis, if given.
        """
        # the pairs add as np.sum(..., axis=-1) adds them, up to the sign of a
        # zero sum, which ``quad + drift`` drops again (quad is never -0.0)
        d = np.subtract(x, self.goal)
        np.multiply(d, d, out=d)
        p = np.subtract(self.prev, x)
        np.multiply(p, self.current, out=p)
        quad = np.multiply(self.lam, np.add(d[..., 0], d[..., 1], out=out), out=out)
        drift = np.add(p[..., 0], p[..., 1])
        np.multiply(self._one_minus_lam, drift, out=drift)
        return np.add(quad, drift, out=quad)

    def gradient_array(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The gradient at each of ``x``'s points, written into ``out`` if given."""
        d = np.subtract(x, self.goal, out=out)
        return np.add(np.multiply(self._neg2lam, d, out=d), self._drift, out=d)

    def _over_lam(self, num, out: np.ndarray | None = None) -> np.ndarray:
        """``num / lam`` per slot, infinite where ``lam`` is 0."""
        if out is None:
            out = np.full(self.lam.shape, math.inf)
        else:
            out.fill(math.inf)
        return np.divide(num, self.lam, out=out, where=self._lam_positive)

    def curvature(self, grad: np.ndarray) -> np.ndarray:
        """Per slot, the conjugate's curvature ``1 / (2 lam)``; infinite at ``lam = 0``.

        ``U_t*(a) = |b|^2 / (4 lam) + <b, goal> - <drift, prev>`` with ``b =
        drift - a``, ``drift = (1 - lam) current``.
        """
        return self._over_lam(0.5)

    def hessian_blocks(self, x: np.ndarray) -> np.ndarray:
        """Per point of ``x`` (one row), the Hessian ``-2 lam I`` of its slot as ``(a, b, c)``."""
        a = -2.0 * self.lam
        return np.column_stack((a, np.zeros_like(a), a))

    def fenchel_young(
        self,
        x: np.ndarray,
        grad: np.ndarray,
        delta: np.ndarray,
        terms: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per slot, ``U_t*(a) - U_t(x) + <a, x> >= 0`` at ``a = grad + delta``.

        ``grad`` is the gradient at ``x``; the quadratic's residual is
        ``|a - grad|^2 / (4 lam)``.  At ``lam = 0`` the utility is linear and its
        conjugate is infinite off the gradient, so the residual counts as
        infinite.  ``terms``, :meth:`slot_terms` at ``x``, goes unread.
        Written into ``out``, of ``x``'s shape less its last axis, if given.
        """
        return self._over_lam(0.25 * (delta[..., 0] ** 2 + delta[..., 1] ** 2), out)


Utilities = Union[CommuteUtilities, VoyageUtilities]
