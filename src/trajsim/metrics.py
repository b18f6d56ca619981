"""Offline benchmark solver, brute-force oracle, and scalar metrics.

The offline benchmark maximizes the summed per-slot utilities over a whole
trajectory at once, subject to the same coupled displacement caps the online
agent faced; its value anchors the regret numbers in every report, and its
duality gap bounds how far that value may lie below the true optimum.  The
caps, the start pin and the box are held as arrays: the ascent and its gap,
the augmented-Lagrangian solve of a row whose box binds and the feasibility
check of every solution all work on them directly.  The dynamic-programming
oracle re-solves small instances on a grid and exists purely to validate the
solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GridTooCoarse
from .field import VelocityField, sample_velocity
from .geom import Point, as_point, dist, left_sum, lerp, norm_sq, sub
from .objectives import Utilities, _pad, row_scalars
from .sets import Box2D, StepCap

# largest oracle lattice per axis: the DP holds (nodes x nodes) per slot
ORACLE_MAX_NODES = 101

# the offline ascent stops a row once its duality gap is at most this share
# of its gain over the start, max(1, U(x) - U(x0)): the default ``tol``
GAP_TOL = 1e-3
# iterations between two gap checks; each check costs one gradient
GAP_EVERY = 10
# a box-binding row's rounds ascend until their box gap is this share of the
# gap the stop still needs; the cap penalty starts at the smoothness and grows
# this much after a round that cut the largest cap violation less than 4x
_INNER_SHARE = 0.1
_RHO_GROWTH = 4.0


@dataclass(frozen=True, eq=False)
class OfflineProblem:
    """Full-horizon trajectory problem: start pin, utilities, caps, box.

    ``utilities`` is a :class:`~trajsim.objectives.CommuteUtilities` or a
    :class:`~trajsim.objectives.VoyageUtilities` of the same horizon.  Slot
    ``t``'s step is capped by ``|x[t+1] - x[t] - centers[t]| <= radii[t]``;
    the ``(T - 1, 2)`` centers and ``(T - 1,)`` radii are stored as
    read-only float arrays.
    """

    start: Point
    utilities: Utilities
    centers: np.ndarray
    radii: np.ndarray
    region: Box2D
    smoothness: float = 2.0

    def __post_init__(self):
        T = self.utilities.horizon
        centers = np.array(self.centers, dtype=float)
        radii = np.array(self.radii, dtype=float)
        if centers.shape != (T - 1, 2) or radii.shape != (T - 1,):
            raise ValueError(
                f"horizon {T} needs ({T - 1}, 2) cap centers and ({T - 1},) radii,"
                f" got {centers.shape} and {radii.shape}"
            )
        if not (np.isfinite(radii).all() and (radii >= 0.0).all()):
            raise ValueError("cap radii must be finite and >= 0")
        start = as_point(self.start)
        if not self.region.contains(start):
            raise ValueError(f"start {start} lies outside the region")
        centers.flags.writeable = radii.flags.writeable = False
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    @property
    def horizon(self) -> int:
        return self.utilities.horizon

    @property
    def caps(self) -> tuple[StepCap, ...]:
        """The caps as :class:`~trajsim.sets.StepCap` values, built on each access."""
        pairs = zip(self.centers.tolist(), self.radii.tolist())
        return tuple(StepCap(i, c, r) for i, (c, r) in enumerate(pairs))


@dataclass
class OfflineSolution:
    points: list[Point]
    utility: float
    iterations: int
    converged: bool
    max_violation: float
    # duality gap at ``points``: the optimum exceeds ``utility`` by at most this
    gap: float
    warning: str | None = None
    # momentum restarts taken by the accelerated ascent
    restarts: int = 0


def _clamp_balls(z: np.ndarray, radii: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Radial clamp of each displacement in ``z`` into its ball: ``z * r / max(|z|, r)``.

    ``z`` is ``(..., 2)`` and ``radii``/``floors`` are ``z.shape[:-1]``;
    ``floors`` is ``max(radii, tiny)``: a zero-radius cap then scales its
    displacement by ``0 / max(|z|, tiny) == 0`` instead of ``0 / 0``.  Rows
    inside their ball are scaled by exactly 1.
    """
    n = np.hypot(z[..., 0], z[..., 1])
    return z * (radii / np.maximum(n, floors))[..., None]


def _step_size(problem: OfflineProblem) -> float:
    """Displacement-space step ``1 / (L * sigma^2)``.

    ``sigma`` is the exact top singular value of the prefix-sum map from
    displacements to waypoints; the chain makes the smoothness grow like T^2.
    """
    T = problem.horizon
    sigma = 1.0 / (2.0 * math.sin(math.pi / (2.0 * (2.0 * (T - 1) + 1.0))))
    return 1.0 / (problem.smoothness * sigma * sigma)


class _Lockstep:
    """The rows still ascending: their padded ``(R, tmax, ...)`` arrays and their state.

    It keeps the problems it was given.  Per row it tracks the problem index
    (``ids``), the momentum ``t_k``, the momentum restarts, the total at the
    start ``u0`` and the duality gap at the last check (``gaps``);
    :meth:`_load` builds every array for those rows, and :meth:`take` is the
    one place a row leaves, from the lists and the arrays alike.
    ``results`` holds each stopped row's waypoints, iteration count, restart
    count, gap and whether the gap met the stop, by problem index.

    Displacements, cap centers and radii are zero-padded past each row's
    ``T - 1`` caps; a padded cap has radius zero, so its displacement stays
    zero.  A padded slot has exactly zero gradient (``-0.0``, the additive
    identity, so suffix sums that run through the padding stay bit for bit
    those of the unpadded row).  Each row's total and gap reduce that row's
    own slots only, so they equal the solo row's bit for bit; a reduce over
    the padded row would pair its terms differently.
    """

    def __init__(self, problems: Sequence[OfflineProblem], x0s: Sequence):
        n = len(problems)
        self.problems = problems
        self.ids = list(range(n))
        self.t_k = [1.0] * n
        self.restarts = [0] * n
        self.gaps = [math.inf] * n
        self.results: list = [None] * n
        self._load()
        # the warm starts, as clamped displacements
        self.z0 = np.zeros_like(self.centers)
        for r, (p, x0) in enumerate(zip(problems, x0s)):
            if x0 is not None and len(x0) == p.horizon:
                xa = np.asarray(x0, dtype=float)
                caps = slice(0, p.horizon - 1)
                w = xa[1:] - xa[:-1] - p.centers
                self.z0[r, caps] = _clamp_balls(w, p.radii, self.floors[r, caps])
        self.u0 = self.values(self.z0)

    def _load(self) -> None:
        """Stack, pad and size every array for the rows in ``ids``."""
        problems = [self.problems[i] for i in self.ids]
        self.horizons = [p.horizon for p in problems]
        tmax = max(self.horizons)
        self.family = problems[0].utilities.stack([p.utilities for p in problems], tmax)
        self.starts = np.array([p.start for p in problems])
        self.centers = _pad([p.centers for p in problems], tmax - 1)
        self.radii = _pad([p.radii for p in problems], tmax - 1)
        self.floors = np.maximum(self.radii, np.finfo(float).tiny)
        self.step = row_scalars([_step_size(p) for p in problems])
        self.x = np.empty((len(problems), tmax, 2))
        self.x[:, 0] = self.starts
        self.disp = np.empty_like(self.centers)
        # the start of each row at each later slot: a broadcast along the
        # short last axis costs more than the addition itself
        self.start_rest = np.repeat(self.starts[:, None], tmax - 1, axis=1)
        pad = np.arange(tmax) >= np.array(self.horizons)[:, None]
        # flat indices of the padded slots' gradient entries, both axes
        self.pad = np.flatnonzero(np.repeat(pad, 2)) if pad.any() else None
        self.sum_buffers: dict = {}

    def take(self, rows: list[int], z: np.ndarray, z_prev: np.ndarray, totals: list[float]):
        """Keep only the given rows, trimmed to their longest horizon.

        Returns the ascent's ``z``, ``z_prev`` and ``totals`` cut to those rows.
        """
        state = (self.ids, self.t_k, self.restarts, self.u0, self.gaps)
        self.ids, self.t_k, self.restarts, self.u0, self.gaps = (
            [seq[j] for j in rows] for seq in state
        )
        self._load()
        width = self.centers.shape[1]
        return z[rows, :width], z_prev[rows, :width], [totals[j] for j in rows]

    def record(self, rows: list[int], z: np.ndarray, iterations: int, met: list[bool]) -> None:
        """Store the given rows' waypoints at ``z`` as their results."""
        x = self.rebuild(z)
        for j in rows:
            waypoints = x[j, : self.horizons[j]].copy()
            self.results[self.ids[j]] = (
                waypoints, iterations, self.restarts[j], self.gaps[j], met[j]
            )

    def rebuild(self, z: np.ndarray) -> np.ndarray:
        """Waypoints from start + per-slot displacements ``center + z``."""
        np.add(self.centers, z, out=self.disp)
        rest = self.x[:, 1:]
        np.add.accumulate(self.disp, axis=1, out=rest)
        np.add(rest, self.start_rest, out=rest)
        return self.x

    def _row_sums(self, terms: np.ndarray, slots: list[int]) -> list[float]:
        """Each row's sum of ``terms[r, :slots[r]]``, reduced flat.

        A lone row has no padding, and its whole array is reduced.  Otherwise
        each row's entries sit between a leading zero and at least one
        trailing zero; np.add.reduce starts a sum at zero and reduceat at its
        segment's first element, so the segment [zero, the row's own entries]
        sums exactly as np.add.reduce over them.
        """
        n = len(slots)
        if n == 1:
            return [float(np.add.reduce(terms, axis=None))]
        key = terms.shape
        if key not in self.sum_buffers:
            width = terms[0].size + 2
            starts = np.arange(n) * width
            ends = starts + 1 + terms[0].size // terms.shape[1] * np.array(slots)
            self.sum_buffers[key] = (
                np.zeros((n, width)), np.column_stack((starts, ends)).ravel()
            )
        buffer, segments = self.sum_buffers[key]
        buffer[:, 1:-1] = terms.reshape(n, -1)
        return np.add.reduceat(buffer.ravel(), segments)[::2].tolist()

    def values(self, z: np.ndarray, rows: Iterable[int] | None = None) -> list[float]:
        """Totals of the given rows (all by default) at displacements ``z``."""
        terms = self.family.slot_terms(self.rebuild(z))
        scale = self.family.total_scale
        sums = self._row_sums(terms, self.horizons)
        return [scale * sums[r] for r in (range(len(sums)) if rows is None else rows)]

    def gradient(self, z: np.ndarray) -> np.ndarray:
        """The gradient in ``z``: a suffix sum of the waypoint gradient."""
        gx = self.family.gradient_array(self.rebuild(z))
        if self.pad is not None:
            np.put(gx, self.pad, -0.0)
        return np.add.accumulate(gx[:, ::-1], axis=1)[:, ::-1][:, 1:]

    def ascent_step(self, z: np.ndarray) -> np.ndarray:
        """Projected gradient step from ``z``."""
        return _clamp_balls(z + self.step * self.gradient(z), self.radii, self.floors)

    def certify(self, z: np.ndarray, totals: list[float], tol: float) -> list[bool]:
        """Refresh each row's gap at ``z``; whether it is at most ``tol * max(1, U - U(x0))``.

        In displacements the feasible set is a product of balls, so the
        Frank-Wolfe gap ``sum_t (r_t |g_t| - <g_t, z_t>)`` bounds ``U* - U(z)``
        for a concave family (Jaggi 2013).  A term is never negative for
        ``|z_t| <= r_t``; one that rounds below zero counts as zero, which
        only loosens the bound.
        """
        g = self.gradient(z)
        g0, g1 = g[..., 0], g[..., 1]
        terms = self.radii * np.hypot(g0, g1) - (g0 * z[..., 0] + g1 * z[..., 1])
        np.maximum(terms, 0.0, out=terms)
        self.gaps = self._row_sums(terms, [h - 1 for h in self.horizons])
        return [gap <= tol * max(1.0, f - f0) for gap, f, f0 in zip(self.gaps, totals, self.u0)]


def _ascend(
    problems: Sequence[OfflineProblem], x0s: Sequence, max_iter: int, tol: float
) -> list[tuple[np.ndarray, int, int, float, bool]]:
    """Accelerated projected ascent on all rows at once, with per-row state.

    Momentum, the restart test, the gap stop and the iteration count are
    kept per row, and a row that stops leaves the lockstep; every numpy call
    covers all rows still ascending.  Every :data:`GAP_EVERY` iterations,
    and at ``max_iter``, each row's gap is checked against ``tol``.  Returns
    each row's waypoints, iteration count, restart count, gap and whether
    the gap met the stop.
    """
    st = _Lockstep(problems, x0s)
    z = z_prev = st.z0
    f_curr = list(st.u0)
    iterations = 0
    while True:
        if iterations % GAP_EVERY == 0 or iterations >= max_iter:
            met = st.certify(z, f_curr, tol)
            done = [m or iterations >= max_iter for m in met]
            if any(done):
                st.record([j for j, d in enumerate(done) if d], z, iterations, met)
                if all(done):
                    return st.results
                keep = [j for j, d in enumerate(done) if not d]
                z, z_prev, f_curr = st.take(keep, z, z_prev, f_curr)
        iterations += 1
        t_next = [0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t)) for t in st.t_k]
        y = z + row_scalars([(t - 1.0) / tn for t, tn in zip(st.t_k, t_next)]) * (z - z_prev)
        z_new = st.ascent_step(y)
        f_new = st.values(z_new)
        back = [j for j, (fn, fc) in enumerate(zip(f_new, f_curr)) if fn < fc]
        if back:
            # momentum overshoot: restart these rows from a plain projected step
            z_back = st.ascent_step(z)
            for j, f in zip(back, st.values(z_back, back)):
                st.restarts[j] += 1
                t_next[j] = 1.0
                f_new[j] = f
            z_new[back] = z_back[back]
        z_prev, z, st.t_k = z, z_new, t_next
        f_curr = f_new


def solve_offline(
    problem: OfflineProblem,
    max_iter: int = 100_000,
    tol: float = GAP_TOL,
    x0: Sequence[Point] | None = None,
) -> OfflineSolution:
    """Maximize the summed utilities over the whole trajectory at once.

    Accelerated projected gradient ascent (FISTA, Beck & Teboulle 2009) in
    displacement coordinates ``z_t = x_{t+1} - x_t - center_t``, where the
    coupled caps become independent balls with exact closed-form
    projections; the waypoints are rebuilt by prefix sums.  Momentum
    restarts whenever the objective decreases.  The step size follows from
    the horizon.

    Every :data:`GAP_EVERY` iterations the solve computes the Frank-Wolfe
    duality gap at its iterate, an upper bound on how far the optimum lies
    above it, and stops once the gap is at most
    ``tol * max(1, U(x) - U(x0))``, where ``x0`` is the starting
    trajectory; ``converged`` says that this held, and ``gap`` carries the
    bound.  At ``max_iter`` the solve stops uncertified unless that last
    check passes.

    The region membership is verified afterwards.  In the rare case that
    the box binds, the row is solved again alone in waypoint space
    (:func:`_solve_boxed`): the box is a clip there, and the caps carry an
    augmented Lagrangian whose duality gap certifies the row under the same
    stop and the same ``max_iter``.

    ``x0`` (e.g. the online trajectory the benchmark compares against)
    warm-starts the solve; without it the start is zero displacement from
    the cap centers, or staying put for a box-binding row.  A solution that
    violates a constraint by more than 1e-6 is not converged and carries a
    warning.  This is the batch of one of :func:`solve_offline_batch`.
    """
    return solve_offline_batch([problem], [x0], max_iter=max_iter, tol=tol)[0]


def solve_offline_batch(
    problems: Sequence[OfflineProblem],
    x0s: Sequence[Sequence[Point] | None] | None = None,
    max_iter: int = 100_000,
    tol: float = GAP_TOL,
) -> list[OfflineSolution]:
    """:func:`solve_offline` for many problems, their ascents run in lockstep.

    Problems whose utility families stack (same family and kind) ascend
    together in one padded computation, so each numpy call covers every
    row; solution ``r`` equals ``solve_offline(problems[r], x0=x0s[r])`` bit
    for bit, its gap and its stop included.  A row that leaves its box is
    solved again alone.
    """
    if x0s is None:
        x0s = [None] * len(problems)
    groups: dict = {}
    for i, p in enumerate(problems):
        if p.horizon > 1:
            groups.setdefault(p.utilities.stack_key, []).append(i)
    ascents: dict[int, tuple] = {}
    for rows in groups.values():
        found = _ascend([problems[i] for i in rows], [x0s[i] for i in rows], max_iter, tol)
        ascents.update(zip(rows, found))
    return [_finish(p, ascents.get(i), x0s[i], max_iter, tol) for i, p in enumerate(problems)]


def _finish(
    problem: OfflineProblem, ascent: tuple | None, x0: Sequence | None, max_iter: int, tol: float
) -> OfflineSolution:
    """Certify one ascent's waypoints; :func:`_solve_boxed` redoes a row that leaves its box."""
    us = problem.utilities
    if ascent is None:  # T == 1: the start pin is the whole trajectory
        pts = [problem.start]
        return OfflineSolution(pts, us.total(pts), 0, True, 0.0, 0.0)
    x, iterations, restarts, gap, met = ascent
    cons = (problem.start, problem.centers, problem.radii, problem.region)
    box_excess, violation = _violation(x, *cons)
    if box_excess > 1e-9:
        x, iterations, restarts, gap, met = _solve_boxed(problem, x0, max_iter, tol)
        violation = _violation(x, *cons)[1]
    converged = violation <= 1e-6 and met
    warning = f"final violation {violation:.3e} above 1e-6" if violation > 1e-6 else None
    pts = [(p[0], p[1]) for p in x.tolist()]
    return OfflineSolution(
        points=pts,
        utility=us.total(pts),
        iterations=iterations,
        converged=converged,
        max_violation=violation,
        warning=warning,
        restarts=restarts,
        gap=gap,
    )


def _violation(
    x: np.ndarray, start: Point, centers: np.ndarray, radii: np.ndarray, box: Box2D
) -> tuple[float, float]:
    """The largest box excess of waypoints ``x`` and their largest violation of any constraint.

    A cap is violated by its step's distance outside the ball, the box by the
    length of a waypoint's excess vector, the start pin by the first
    waypoint's distance from the start; 0 means feasible.
    """
    w = x[1:] - x[:-1] - centers
    ex = np.maximum(np.maximum(box.lo - x, x - box.hi), 0.0)
    pin = np.abs(x[0] - start)
    box_excess = float(np.max(np.hypot(ex[:, 0], ex[:, 1])))
    cap_gap = float(np.max(np.hypot(w[:, 0], w[:, 1]) - radii, initial=0.0))
    return box_excess, max(cap_gap, float(np.hypot(pin[0], pin[1])), box_excess)


def _chain_adjoint(v: np.ndarray) -> np.ndarray:
    """``D^T v`` for the steps ``(D x)_t = x_{t+1} - x_t``."""
    out = np.zeros((len(v) + 1, 2))
    out[1:] = v
    out[:-1] -= v
    return out


def _box_gap(g: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Frank-Wolfe gap at gradient ``g`` over the box of the unpinned waypoints ``x[1:]``."""
    g, x = g[1:], x[1:]
    return float(np.add.reduce(np.maximum(g * (hi - x), g * (lo - x)), axis=None))


def _retract(x: np.ndarray, start: np.ndarray, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``start + theta (x - start)`` for the largest ``theta`` in [0, 1] that meets every cap.

    Step ``d_t`` scales by ``theta``, so cap t holds up to the positive root of
    ``|d|^2 theta^2 - 2 <d, c> theta + |c|^2 - r^2``: staying put meets it.
    """
    d = x[1:] - x[:-1]
    w = d - c
    out = np.hypot(w[:, 0], w[:, 1]) > r
    if not out.any():
        return x
    d, c, r = d[out], c[out], r[out]
    dd, dc, cc = (np.einsum("ij,ij->i", a, b) for a, b in ((d, d), (d, c), (c, c)))
    root = np.sqrt(np.maximum(dc * dc - dd * (cc - r * r), 0.0))
    theta = float(((dc + root) / np.maximum(dd, np.finfo(float).tiny)).min())
    return start + min(max(theta, 0.0), 1.0) * (x - start)


def _solve_boxed(
    problem: OfflineProblem, x0: Sequence[Point] | None, max_iter: int, tol: float
) -> tuple[np.ndarray, int, int, float, bool]:
    """Augmented-Lagrangian ascent of one box-binding row over its waypoints.

    The box and the start pin are a clip; the caps ``|w_t| <= r_t``, ``w = D x
    - centers``, add ``-rho/2 sum_t dist(w_t + lam_t / rho, B(0, r_t))^2``
    (Bertsekas 1982, ch. 2).  Rounds of FISTA with gradient restarts
    (O'Donoghue & Candes 2015) each end with ``lam`` taking the excess.
    ``l(x) = U(x) - sum <lam_t, w_t> + sum r_t |lam_t| >= U`` where the caps
    hold, so ``l`` plus its box gap bounds the optimum; the gap is that bound
    minus the utility of the :func:`_retract`-ed iterate.  The row starts at
    ``x0`` clipped into the box, or else stays put.
    """
    us = problem.utilities
    start = np.array(problem.start)
    lo, hi = np.array(problem.region.lo), np.array(problem.region.hi)
    centers, radii = problem.centers, problem.radii
    floors = np.maximum(radii, np.finfo(float).tiny)
    x = np.repeat(start[None], problem.horizon, axis=0)
    if x0 is not None and len(x0) == problem.horizon:
        x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    x[0] = start
    u0 = us.total(x)
    lam = np.zeros_like(centers)
    rho = problem.smoothness
    violation = math.inf
    inner = _INNER_SHARE * tol
    iterations = restarts = 0

    def excess(x: np.ndarray) -> np.ndarray:
        q = x[1:] - x[:-1] - shift  # w + lam / rho
        return q - _clamp_balls(q, radii, floors)

    def ascent(x: np.ndarray) -> np.ndarray:
        return us.gradient_array(x) - rho * _chain_adjoint(excess(x))

    while True:
        shift = centers - lam / rho
        step = 1.0 / (problem.smoothness + 4.0 * rho)
        x_prev, t_k, k = x, 1.0, 0
        while iterations < max_iter:
            if k % GAP_EVERY == 0 and _box_gap(ascent(x), x, lo, hi) <= inner:
                break
            k += 1
            iterations += 1
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
            y = x + ((t_k - 1.0) / t_next) * (x - x_prev)
            x_new = np.minimum(np.maximum(y + step * ascent(y), lo), hi)
            x_new[0] = start
            if np.vdot(x_new - y, x_new - x) < 0.0:
                restarts += 1
                t_next = 1.0
            x_prev, x, t_k = x, x_new, t_next
        lam = rho * excess(x)
        w = x[1:] - x[:-1] - centers
        u_hat = us.total(x)
        bound = u_hat - float(np.vdot(lam, w)) + float(radii @ np.hypot(lam[:, 0], lam[:, 1]))
        bound += _box_gap(us.gradient_array(x) - _chain_adjoint(lam), x, lo, hi)
        x_f = _retract(x, start, centers, radii)
        u = us.total(x_f)
        gap = max(bound - u, 0.0)
        met = gap <= tol * max(1.0, u - u0)
        if met or iterations >= max_iter:
            return x_f, iterations, restarts, gap, met
        inner = _INNER_SHARE * min(gap, tol * max(1.0, u_hat - u0))
        worst = float(np.max(np.hypot(w[:, 0], w[:, 1]) - radii, initial=0.0))
        if worst > 0.25 * violation:
            rho *= _RHO_GROWTH
        violation = worst


@dataclass(frozen=True)
class OracleGrid:
    """Rectangular evaluation lattice for the brute-force oracle."""

    lo: Point
    hi: Point
    nx: int
    ny: int

    def nodes(self, extra: Sequence[Point] = ()) -> np.ndarray:
        xs = np.linspace(self.lo[0], self.hi[0], self.nx)
        ys = np.linspace(self.lo[1], self.hi[1], self.ny)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        if extra:
            pts = np.vstack([pts, np.asarray(extra, dtype=float)])
        return pts


@dataclass
class OracleSolution:
    points: list[Point]
    utility: float


def dp_oracle(problem: OfflineProblem, grid: OracleGrid) -> OracleSolution:
    """Exact maximizer of the offline problem restricted to a grid.

    Dynamic programming over slot layers; transitions between nodes are kept
    only when they satisfy the slot's displacement cap.  The start point is
    always included as a node.  Enforces ``T <= 6`` and a grid of at most
    101 x 101, and raises :class:`GridTooCoarse` when some reachable node
    has no feasible successor.
    """
    T = problem.horizon
    if T > 6:
        raise ValueError(f"oracle limited to horizons <= 6, got {T}")
    if grid.nx > ORACLE_MAX_NODES or grid.ny > ORACLE_MAX_NODES:
        raise ValueError(f"oracle grid limited to {ORACLE_MAX_NODES} x {ORACLE_MAX_NODES}")
    nodes = grid.nodes(extra=[problem.start])
    inside = np.array([problem.region.contains((p[0], p[1]), tol=1e-9) for p in nodes])
    nodes = nodes[inside]
    n = len(nodes)
    us = problem.utilities
    utilities = np.array([us.evaluate([(p[0], p[1])] * T) for p in nodes]).T  # (T, n)
    start_idx = int(np.argmin(np.sum((nodes - np.asarray(problem.start)) ** 2, axis=1)))
    if dist((nodes[start_idx][0], nodes[start_idx][1]), problem.start) > 1e-12:
        raise GridTooCoarse("grid does not contain the start point")
    value = np.full(n, -np.inf)
    value[start_idx] = utilities[0, start_idx]
    parents = np.zeros((T, n), dtype=int)
    for t, radius in enumerate(problem.radii.tolist(), start=1):
        shifted = nodes + problem.centers[t - 1]  # reachable centers from each node
        d2 = (
            (shifted[:, None, 0] - nodes[None, :, 0]) ** 2
            + (shifted[:, None, 1] - nodes[None, :, 1]) ** 2
        )
        feasible = d2 <= (radius + 1e-12) ** 2  # (from, to)
        occupied = value > -np.inf
        dead = occupied & ~feasible.any(axis=1)
        if dead.any():
            i = int(np.argmax(dead))
            raise GridTooCoarse(
                f"slot {t}: node ({nodes[i][0]:.6g}, {nodes[i][1]:.6g}) has no feasible successor"
            )
        cand = np.where(feasible, value[:, None], -np.inf)
        parents[t] = np.argmax(cand, axis=0)
        value = cand[parents[t], np.arange(n)] + utilities[t]
    end = int(np.argmax(value))
    path = [end]
    for t in range(T - 1, 0, -1):
        path.append(int(parents[t][path[-1]]))
    path.reverse()
    points = [(float(nodes[i][0]), float(nodes[i][1])) for i in path]
    return OracleSolution(points=points, utility=float(value[end]))


def squared_path_length(traj: Sequence[Point]) -> float:
    """Sum of squared displacements along a trajectory."""
    return left_sum((norm_sq(sub(b, a)) for a, b in zip(traj, traj[1:])), 0.0)


@dataclass(frozen=True)
class GradientVariation:
    value: float
    # False when some pair's term is an upper bound, not an attained maximum
    exact: bool


def gradient_variation(utilities: Utilities, region: Box2D) -> GradientVariation:
    """Worst-case cumulative squared change of the gradient between slots.

    The sum over consecutive slots of the maximum over ``region`` of
    ``|grad U_{t+1}(x) - grad U_t(x)|^2``.  Each family gives its per-pair
    maxima in closed form (``variation_terms``): exact for the squared
    commute and the voyage, and for the Huber commute whenever every pair's
    leads have their midpoint in ``region``.
    """
    terms, exact = utilities.variation_terms(region)
    return GradientVariation(value=left_sum(terms, 0.0), exact=exact)


def cumulative_error(eps_sq: Sequence[float]) -> float:
    """Sum of per-slot squared error bounds."""
    for i, e in enumerate(eps_sq):
        if e < 0.0:
            raise ValueError(f"eps_sq[{i}] = {e} is negative")
    return left_sum(eps_sq, 0.0)


def energy_cost(
    traj: Sequence[Point],
    fld: VelocityField | None,
    c_d: float,
    slot_duration: float = 1.0,
) -> float:
    """Cubed-relative-speed drag energy of a trajectory, in joules.

    Per slot the motors must supply the relative velocity
    ``(dx - v_o * tau) / tau`` against the local current (sampled at the
    slot's starting waypoint), costing ``c_d * speed^3 * tau``.  A ``None``
    field means still water, so relative speed equals ground speed.
    """
    if slot_duration <= 0.0:
        raise ValueError("slot duration must be positive")
    tau = slot_duration
    total = 0.0
    for t, (a, b) in enumerate(zip(traj, traj[1:]), start=1):
        if fld is None:
            vo = (0.0, 0.0)
        else:
            vo = sample_velocity(fld, a, (t - 1) * tau)
        rel = ((b[0] - a[0]) / tau - vo[0], (b[1] - a[1]) / tau - vo[1])
        speed = math.hypot(rel[0], rel[1])
        total += c_d * speed**3 * tau
    return total


def straight_line_trajectory(s: Point, d: Point, T: int) -> list[Point]:
    """Uniformly spaced waypoints from ``s`` to ``d`` over ``T`` slots."""
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if T == 1:
        return [s]
    return [lerp(s, d, t / (T - 1)) for t in range(T)]


@dataclass(frozen=True)
class RegretReport:
    """Paired offline/online utility streams plus the variation measures."""

    offline_utilities: tuple[float, ...]
    online_utilities: tuple[float, ...]
    regret: float
    s_t: float
    g_t: float
    g_t_exact: bool
    e_t_bound: float
    e_t_realized: float
    energy_online: float
    energy_straight: float
    final_goal_distance: float
    solver_converged: bool = True
    solver_warning: str | None = None
    solver_iterations: int = 0
    solver_restarts: int = 0
    # the offline solution's duality gap; None for a report built without it
    offline_gap: float | None = None

    @property
    def energy_conserved(self) -> float:
        return self.energy_straight - self.energy_online

    @property
    def regret_upper(self) -> float | None:
        """``regret + offline_gap``: the regret against the true optimum is at most this."""
        return None if self.offline_gap is None else self.regret + self.offline_gap


def build_regret_report(
    problem: OfflineProblem,
    online_traj: Sequence[Point],
    online_utilities: Sequence[float],
    eps_sq_bounds: Sequence[float],
    eps_sq_realized: Sequence[float],
    energy_online: float,
    goal: Point,
    fld: VelocityField | None,
    c_d: float,
    slot_duration: float = 1.0,
    solution: OfflineSolution | None = None,
) -> RegretReport:
    """Assemble the full comparison report against the offline benchmark.

    ``online_utilities`` are the per-slot utilities of ``online_traj`` and
    ``energy_online`` is its energy, as the episode evaluated them.
    ``solution`` is the benchmark's :func:`solve_offline` result
    warm-started at ``online_traj`` (a sweep solves its rows together);
    without it the benchmark is solved here.
    """
    sol = solution if solution is not None else solve_offline(problem, x0=online_traj)
    us = problem.utilities
    offline_u = tuple(us.evaluate(sol.points))
    online_u = tuple(online_utilities)
    gv = gradient_variation(us, problem.region)
    straight = straight_line_trajectory(online_traj[0], goal, len(online_traj))
    return RegretReport(
        offline_utilities=offline_u,
        online_utilities=online_u,
        regret=left_sum(offline_u) - left_sum(online_u),
        s_t=squared_path_length(sol.points),
        g_t=gv.value,
        g_t_exact=gv.exact,
        e_t_bound=cumulative_error(eps_sq_bounds),
        e_t_realized=cumulative_error(eps_sq_realized),
        energy_online=energy_online,
        energy_straight=energy_cost(straight, fld, c_d, slot_duration),
        final_goal_distance=dist(online_traj[-1], goal),
        solver_converged=sol.converged,
        solver_warning=sol.warning,
        solver_iterations=sol.iterations,
        solver_restarts=sol.restarts,
        offline_gap=sol.gap,
    )
