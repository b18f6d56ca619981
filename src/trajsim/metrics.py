"""Offline benchmark solver, brute-force oracle, and scalar metrics.

The offline benchmark maximizes the summed per-slot utilities over a whole
trajectory at once, subject to the same coupled displacement caps the online
agent faced; its value anchors the regret numbers in every report, and its
duality gap bounds how far that value may lie below the true optimum.  The
gap is the smaller of the Frank-Wolfe gap and a second bound: for a squared
commute, the bound at the best placement of the iterate's rigid runs of
filled caps (the unconstrained shortfall when every cap is free, the
Frank-Wolfe gap when every cap is filled); where a row's conjugate
utilities differ in curvature, the bound one preconditioned dual step
reaches.  The ascent restarts its momentum where a step lowers the total,
and computes the totals only at the gap checks and at the steps whose gain
the descent lemma of FISTA cannot prove from the iterates alone.  Once a
row's binding caps settle far from its stop, an active-set Newton finish
solves the KKT system of those caps, block tridiagonal in waypoint space,
in O(T), and certifies its point with the same gap.  The caps, the start
pin and the box are held as arrays: the ascent and its gap, the
augmented-Lagrangian solve of a row whose box binds and the feasibility
check of every solution all work on them directly.  The dynamic-programming
oracle re-solves small instances on a grid and exists purely to validate the
solver.  Both drivers' step energies are :func:`step_energies`, which
:func:`energy_cost` sums.  The regret report's scalar metrics (G_T's
terms, the straight-line path and the energies, the error sums) are array
passes with the bits of the per-slot loops they replaced: numpy only for
``+ - * /`` and comparisons, ``math.hypot`` and ``**`` mapped over the
slots, and sums added left to right from 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import GridTooCoarse
from .field import VelocityField, sample_velocity
from .geom import (
    Point, as_array, as_point, dist, left_sum, left_sum_array, mapped, points, powers,
)
from .objectives import Utilities, _constant, _pad, row_scalars
from .sets import Box2D, StepCap

if TYPE_CHECKING:
    from .scenarios import EpisodeReport

# largest oracle lattice per axis: the DP holds (nodes x nodes) per slot
ORACLE_MAX_NODES = 101

# the offline ascent stops a row once its duality gap is at most this share
# of its gain over the start, max(1, U(x) - U(x0)): the default ``tol``
GAP_TOL = 1e-3
# the ascent's gap checks fall on multiples of this many iterations: after a
# failing check a row waits until the trend of its gaps says the next one can
# pass, at least this many iterations and at most _MAX_WAIT times as many.  A
# check costs a gradient and the certificate's kernels: on a T = 128 Huber
# row, about three iterations
GAP_EVERY = 10
_MAX_WAIT = 4
# a row that can still start the Newton finish (no zero-radius cap, no failed
# attempt) and whose gap is within this many times its threshold waits at
# most _MAX_WAIT // 2 of them, so that the finish starts soon after its
# binding caps settle.  Sized on the Huber commutes of T = 128 to 1024: at
# 60, or at 45 with rows that had failed an attempt, rows of T = 512 spent
# both attempts on binding caps that still moved
_FINISH_RATIO = 45.0
# the most KKT solves in one attempt of the Newton finish, and the most
# attempts per row: at T = 4096 every attempt failed, and one at each change
# of the binding caps cost 40 solves
_NEWTON_SOLVES = 4
_NEWTON_ATTEMPTS = 2
# a box-binding row's rounds ascend until their box gap is this share of the
# gap the stop still needs; the cap penalty starts at the smoothness and grows
# this much after a round that cut the largest cap violation less than 4x
_INNER_SHARE = 0.1
_RHO_GROWTH = 4.0
# constant operands of the lockstep's kernels
_ZERO, _ONE, _TINY = map(_constant, (0.0, 1.0, np.finfo(float).tiny))
# a cap is filled, and its displacement frozen for the rigid-run bound, once
# its displacement is at least this share of its radius
_FILLED = 1.0 - 1e-9
# the restart test takes a step's gain as proved once the descent lemma's
# bound on it exceeds this times the row's horizon T and max(1, |total|)
# (_Lockstep.rose).  A computed total adds at most 2 T slot terms, each a
# few roundings off, at waypoints whose prefix sums are a few T ulps off,
# so it lies some T ulps of its terms' size from the exact total; that size
# is |total| where the terms share a sign (every commute's, and the
# voyage's, whose goal term outweighs its drift term).  2**10 covers the
# constants, both totals and the rounding of the bound itself
_MARGIN = 2.0**10 * np.finfo(float).eps


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
    # ascent iterations; a box-binding row counts its box solve's
    iterations: int
    converged: bool
    max_violation: float
    # duality gap at ``points``: the optimum exceeds ``utility`` by at most this
    gap: float
    warning: str | None = None
    # momentum restarts taken by the accelerated ascent
    restarts: int = 0
    # gap checks: the duality gaps the solve computed and tested against a
    # stop (the ascent's scheduled checks and the Newton finish's
    # certifications; a box solve's inner box gaps and round bounds)
    checks: int = 0
    # KKT solves of the Newton finish, failed attempts' included
    newton_solves: int = 0


def _clamp_balls(z: np.ndarray, radii: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Radial clamp of each displacement in ``z`` into its ball: ``z * r / max(|z|, r)``.

    ``z`` is ``(..., 2)`` and ``radii``/``floors`` are ``z.shape[:-1]``;
    ``floors`` is ``max(radii, tiny)``: a zero-radius cap then scales its
    displacement by ``0 / max(|z|, tiny) == 0`` instead of ``0 / 0``.  Rows
    inside their ball are scaled by exactly 1.
    """
    n = np.hypot(z[..., 0], z[..., 1])
    return z * (radii / np.maximum(n, floors))[..., None]


def _by_axis(a: np.ndarray) -> np.ndarray:
    """An ``(R, n, 2)`` array viewed as ``(2, R, n)``, one coordinate at a time."""
    return a.transpose(2, 0, 1)


def _pairs(a: np.ndarray) -> np.ndarray:
    """An ``(R, n, 2)`` float array viewed as ``(R, n)`` complex pairs, sharing its memory.

    Only ``np.add.accumulate`` runs on these views.  numpy adds a complex
    pair as two separate IEEE additions and an accumulate adds strictly in
    order, so a chain of pairs carries both coordinates' sums bit for bit,
    NaN, infinities and ``-0.0`` included, in one dependency chain instead
    of two.  Reductions stay on floats: they sum pairwise or by blocks.
    """
    return a.view(np.complex128)[..., 0]


def _scale_rows(a: np.ndarray, scales: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``p * s[..., None]`` into ``out``, for ``a = _by_axis(p)`` and ``scales = s[None]``.

    ``out`` is an ``(R, n, 2)`` array, allocated if not given.  The product
    runs one coordinate at a time: broadcast along the short last axis of
    ``p``, numpy's inner loop would run two elements at a time.
    """
    if out is None:
        out = np.empty(a.shape[1:] + (2,))
    np.multiply(a, scales, out=_by_axis(out), order="C")
    return out


def _check_out(result: np.ndarray, out: np.ndarray, family, method: str) -> None:
    """Raise TypeError unless ``family.method`` returned the ``out`` array it was handed.

    The lockstep reads what the families write through views of ``out``.
    """
    if result is not out:
        raise TypeError(f"{type(family).__name__}.{method} did not return its out array")


def _step_size(problem: OfflineProblem) -> float:
    """Displacement-space step ``1 / (L * sigma^2)``, ``L`` the family's smoothness.

    ``sigma`` is the exact top singular value of the prefix-sum map from
    displacements to waypoints; the chain makes the smoothness grow like T^2.
    """
    T = problem.horizon
    sigma = 1.0 / (2.0 * math.sin(math.pi / (2.0 * (2.0 * (T - 1) + 1.0))))
    return 1.0 / (problem.utilities.smoothness * sigma * sigma)


class _Lockstep:
    """The rows still ascending: their padded ``(R, tmax, ...)`` arrays and their state.

    It keeps the problems it was given.  Per row it tracks the problem index
    (``ids``), the momentum ``t_k``, the momentum restarts, the total at the
    start ``u0``, the duality gap at the last check (``gaps``) and the
    row's check schedule: the iteration its next check is due (``due``),
    its last check's iteration and gap over the stop's threshold
    (``last``), its checks so far (``checks``), and for the Newton finish
    its KKT solves, binding caps and failed attempts' binding caps
    (``solves``, ``binding``, ``tried``); :meth:`_load` builds every array
    for those rows.  :meth:`check` is the one gap check, and :meth:`take`,
    which it calls, the one place a row leaves, from the lists and the
    arrays alike.  ``results`` holds each stopped row's
    waypoints, iteration, restart and check counts, gap, whether the gap
    met the stop and Newton solves, by problem index.

    Displacements, cap centers and radii are zero-padded past each row's
    ``T - 1`` caps; a padded cap has radius zero, so its displacement stays
    zero.  A padded slot has exactly zero gradient (``-0.0``, the additive
    identity, so suffix sums that run through the padding stay bit for bit
    those of the unpadded row).  Each row's total and gap reduce that row's
    own slots only, so they equal the solo row's bit for bit; a reduce over
    the padded row would pair its terms differently.

    Every array a step, its descent-lemma bound, a total or a check
    computes lives in one workspace that :meth:`_load` allocates, with the
    views the kernels read, so an iteration writes through ``out=`` and
    allocates only the families' scratch.  A workspace array is overwritten
    by the next call that uses it; what a method returns to its caller is
    never one of them.  The chain sums along the horizon, the waypoints'
    prefix sums and the gradients' suffix sums, run on :func:`_pairs` views,
    so one accumulate adds both coordinates with the float accumulate's
    bits; every reduction stays on the floats, as it sums pairwise.
    """

    # the per-row lists, by attribute name: take() cuts each to the rows it keeps
    _ROW_STATE = ("ids", "t_k", "restarts", "u0", "gaps", "due", "last", "checks", "solves",
                  "binding", "tried")

    def __init__(self, problems: Sequence[OfflineProblem], x0s: Sequence):
        n = len(problems)
        self.problems = problems
        self.ids = list(range(n))
        self.t_k = [1.0] * n
        self.restarts = [0] * n
        self.gaps = [math.inf] * n
        self.due = [0] * n
        self.last: list = [None] * n
        self.checks = [0] * n
        self.solves, self.binding, self.tried = [0] * n, [None] * n, [()] * n
        self.results: list = [None] * n
        self._load()
        # the warm starts, as clamped displacements
        self.z0 = np.zeros_like(self.centers)
        for r, (p, x0) in enumerate(zip(problems, x0s)):
            if x0 is not None and len(x0) == p.horizon:
                xa = as_array(x0)
                caps = slice(0, p.horizon - 1)
                w = xa[1:] - xa[:-1] - p.centers
                self.z0[r, caps] = _clamp_balls(w, p.radii, self.floors[r, caps])
        self.u0 = self.values(self.z0)

    def _load(self) -> None:
        """Stack, pad and size every array for the rows in ``ids``."""
        problems = [self.problems[i] for i in self.ids]
        self.horizons = [p.horizon for p in problems]
        self.cap_counts = [h - 1 for h in self.horizons]
        tmax = max(self.horizons)
        self.family = problems[0].utilities.stack([p.utilities for p in problems], tmax)
        self.starts = np.array([p.start for p in problems])
        self.centers = _pad([p.centers for p in problems], tmax - 1)
        self.radii = _pad([p.radii for p in problems], tmax - 1)
        self.floors = np.maximum(self.radii, np.finfo(float).tiny)
        self.steps = [_step_size(p) for p in problems]
        self.step = _constant(row_scalars(self.steps))
        self.x = np.empty((len(problems), tmax, 2))
        self.x[:, 0] = self.starts
        self.x_rest = self.x[:, 1:]
        self.disp = np.empty_like(self.centers)
        self.x_rest_pairs, self.disp_pairs = _pairs(self.x_rest), _pairs(self.disp)
        # the start of each row at each later slot: a broadcast along the
        # short last axis costs more than the addition itself
        self.start_rest = np.repeat(self.starts[:, None], tmax - 1, axis=1)
        self.pad_slots = np.arange(tmax) >= np.array(self.horizons)[:, None]
        self.pad_caps = self.pad_slots[:, 1:]
        # flat indices of the padded slots' gradient entries, both axes
        pad = np.flatnonzero(np.repeat(self.pad_slots, 2))
        self.pad = pad if pad.size else None
        self.sum_buffers: dict = {}
        # the workspace.  Waypoint-sized: the gradient, its suffix sums (an
        # accumulate over the reversed gradient, written back to front so that
        # the gradient in z, ``sums[:, 1:]``, is read front to back) and D^T lam
        # (first the rigid runs' point and its gradient).
        self.gx = np.empty_like(self.x)
        self.sums = np.empty_like(self.x)
        self.g = self.sums[:, 1:]
        self.adjoint = np.empty_like(self.x)
        # displacement-sized: the momentum point, its offset from the iterate,
        # the step point (then the squared displacements, the dual point, or
        # the step's offset from the momentum point), the cap multipliers, and
        # the coordinates each reads
        self.y = np.empty_like(self.centers)
        self.momentum = np.empty_like(self.centers)
        self.w = np.empty_like(self.centers)
        self.lam = np.empty_like(self.centers)
        self.g_by_axis, self.w_by_axis, self.lam_by_axis = map(_by_axis, (self.g, self.w, self.lam))
        # the suffix sums' pairs, reversed: the gradient's (gradient_array
        # writes into gx) and the rigid-run point's (into adjoint)
        self.gx_pairs_rev = _pairs(self.gx[:, ::-1])
        self.sums_pairs_rev = _pairs(self.sums[:, ::-1])
        self.adjoint_pairs_rev = _pairs(self.adjoint[:, :0:-1])
        self.lam_pairs_rev = _pairs(self.lam[:, ::-1])
        self.w_coords = tuple(self.w_by_axis)
        # cap-sized: norms, scales (with the view _scale_rows reads), the cap
        # terms and their two inner products, and the dual steps
        self.norms = np.empty_like(self.radii)
        self.scales = np.empty_like(self.radii)
        self.scales_by_axis = self.scales[None]
        self.cap_terms = np.empty_like(self.radii)
        self.products = np.empty((2,) + self.radii.shape)
        self.eta = np.empty_like(self.radii)
        self.eta_by_axis = self.eta[None]
        # the rigid-run bound's: the squared length that fills each cap
        # (none fills a padded one), flat over the slots and one past them
        # whether a run begins there (so per cap whether it is free), and
        # each row's first slot
        self.filled = np.where(self.pad_caps, np.inf, np.square(self.radii * _FILLED))
        self.firsts = np.ones(self.pad_slots.size + 1, dtype=bool)
        self.free = self.firsts[:-1].reshape(self.pad_slots.shape)[:, 1:]
        self.row_firsts = np.arange(len(problems)) * tmax
        # slot-sized, the family's shape: filled by the first call that
        # returns it
        self.terms = self.residuals = None

    def take(self, rows: list[int], z: np.ndarray, z_prev: np.ndarray, totals: list[float]):
        """Keep only the given rows, trimmed to their longest horizon.

        Returns the ascent's ``z``, ``z_prev`` and ``totals`` cut to those rows.
        """
        for name in self._ROW_STATE:
            seq = getattr(self, name)
            setattr(self, name, [seq[j] for j in rows])
        self._load()
        width = self.centers.shape[1]
        return z[rows, :width], z_prev[rows, :width], [totals[j] for j in rows]

    def rebuild(self, z: np.ndarray) -> np.ndarray:
        """Waypoints from start + per-slot displacements ``center + z``.

        The prefix sums run on the :func:`_pairs` views, both coordinates in
        one chain, with the float accumulate's bits.
        """
        np.add(self.centers, z, out=self.disp)
        np.add.accumulate(self.disp_pairs, axis=1, out=self.x_rest_pairs)
        np.add(self.x_rest, self.start_rest, out=self.x_rest)
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
        """Totals of the given rows (all by default) at displacements ``z``.

        The waypoints stay in ``x`` and the slot terms in ``terms``, for a
        check at ``z`` to read.
        """
        self.terms = self.family.slot_terms(self.rebuild(z), out=self.terms)
        scale = self.family.total_scale
        sums = self._row_sums(self.terms, self.horizons)
        return [scale * sums[r] for r in (range(len(sums)) if rows is None else rows)]

    def gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The family's gradient at waypoints ``x``, and the gradient in their displacements.

        Padded slots get a zero waypoint gradient.  The gradient in ``z`` is
        per cap ``t`` the sum of the waypoint gradients ``gx[:, s]`` over
        ``s > t``: an accumulate on the reversed :func:`_pairs` views, which
        keeps the float accumulate's bits.
        """
        gx = self.family.gradient_array(x, out=self.gx)
        _check_out(gx, self.gx, self.family, "gradient_array")
        if self.pad is not None:
            np.put(gx, self.pad, -0.0)
        np.add.accumulate(self.gx_pairs_rev, axis=1, out=self.sums_pairs_rev)
        return gx, self.g

    def ascent_step(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Projected gradient step from ``z``, written into ``out`` if given.

        The radial clamp of :func:`_clamp_balls`, on the workspace.
        """
        w = np.multiply(self.step, self.gradient(self.rebuild(z))[1], out=self.w)
        np.add(z, w, out=w)
        n = np.hypot(*self.w_coords, out=self.norms)
        np.divide(self.radii, np.maximum(n, self.floors, out=n), out=self.scales)
        return _scale_rows(self.w_by_axis, self.scales_by_axis, out)

    def margins(self, totals: list[float]):
        """Per row, the least ``|a|^2 + 2 <y - z, a>`` that :meth:`rose` accepts.

        It is ``2 * step`` times the row's rounding margin, ``_MARGIN * T *
        max(1, |total|)``, at ``totals``, the row's last computed total: a
        float for a lone row, else an ``(R,)`` array.
        """
        margins = [
            2.0 * step * _MARGIN * horizon * max(1.0, abs(f))
            for step, horizon, f in zip(self.steps, self.horizons, totals)
        ]
        return margins[0] if len(margins) == 1 else np.array(margins)

    def rose(self, z: np.ndarray, y: np.ndarray, z_new: np.ndarray, margins) -> bool:
        """Whether the descent lemma proves that every row's total rose from ``z`` to ``z_new``.

        ``z_new`` is :meth:`ascent_step` from ``y``, and ``z`` is feasible.
        For a concave total whose gradient in ``z`` is ``1 / step``-Lipschitz,
        ``U(z_new) - U(z) >= (|a|^2 / 2 + <y - z, a>) / step`` with ``a =
        z_new - y`` (Beck & Teboulle 2009, Lemma 2.3).  True when that bound
        exceeds each row's rounding margin (``margins``, from
        :meth:`margins`), so that the two totals, were they computed, would
        not compare as a decrease.  Padded caps hold zeros, which add
        nothing to a row's sum.
        """
        a = np.subtract(z_new, y, out=self.w)
        b = np.subtract(y, z, out=self.momentum)
        if len(self.ids) == 1:
            return float(np.vdot(a, a) + 2.0 * np.vdot(b, a)) > margins
        rows = np.einsum("rij,rij->r", a, a) + 2.0 * np.einsum("rij,rij->r", b, a)
        return bool((rows > margins).all())

    def _cap_terms(self, lam: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Per cap, ``r_t |lam_t| - <lam_t, z_t>`` clamped at zero, into ``cap_terms``.

        ``lam`` and ``z`` are the multipliers and the displacements, each as
        :func:`_by_axis` views.
        """
        out = np.multiply(self.radii, np.hypot(*lam, out=self.cap_terms), out=self.cap_terms)
        products = np.multiply(lam, z, out=self.products)
        np.subtract(out, np.add(*products, out=products[0]), out=out)
        return np.maximum(out, _ZERO, out=out)

    def certify(self, z: np.ndarray, totals: list[float], tol: float) -> list[bool]:
        """Refresh each row's gap at ``z``; whether it is at most ``tol * max(1, U - U(x0))``.

        ``z`` is the point of the last :meth:`values` call, whose waypoints
        and slot terms the check reads; each row's threshold goes to
        ``limits``.

        Any cap multipliers ``lam`` bound the shortfall by weak duality:
        ``U* - U(z) <= sum_t (r_t |lam_t| - <lam_t, z_t>) + sum_{s>=1} FY_s(a_s)``
        with ``a = grad U(x) + D^T (lam - g)``, ``(D^T v)_s = v_{s-1} - v_s``,
        and ``FY_s(a) = U_s*(a) - U_s(x_s) + <a, x_s> >= 0`` the family's
        Fenchel-Young residual.  At ``lam = g``, the gradient in ``z``, every
        residual is zero and the bound is the Frank-Wolfe gap (Jaggi 2013).
        Each row's gap is the smaller of that and the bound at a second
        ``lam``: for a squared commute, the gradient at the best placement of
        the iterate's rigid runs (:meth:`_rigid_run_point`); where a row's
        conjugates differ in curvature, one preconditioned proximal step off
        ``g`` (:meth:`_dual_step_terms`).  A Huber or voyage row whose slots
        share one curvature keeps the Frank-Wolfe gap: a diagonal step there
        is plain Jacobi, which tightens too little to pay for itself.  Every
        term is nonnegative for ``|z_t| <= r_t``; one that rounds below zero
        counts as zero, which only loosens the bound.
        """
        gx, g = self.gradient(self.x)
        z_by_axis = _by_axis(z)
        self.gaps = self._row_sums(self._cap_terms(self.g_by_axis, z_by_axis), self.cap_counts)
        kappa = self.family.curvature(gx)
        if kappa is None:
            self._rigid_run_point(z)
            bounds = self._row_sums(self._bound_terms(gx, g, z_by_axis), self.cap_counts)
            self.gaps = [min(f, b) for f, b in zip(self.gaps, bounds)]
        else:
            # slot 0 is the pinned start, and padded slots never count
            k = kappa[:, 1:]
            stepped = (~((k == k[:, :1]) | self.pad_caps).all(axis=1)).tolist()
            if any(stepped):
                kappa[:, 0] = 0.0
                terms = self._dual_step_terms(gx, g, z_by_axis, kappa)
                bounds = self._row_sums(terms, self.cap_counts)
                self.gaps = [min(f, b) if s else f for f, b, s in zip(self.gaps, bounds, stepped)]
        self.limits = [tol * max(1.0, f - f0) for f, f0 in zip(totals, self.u0)]
        return [gap <= limit for gap, limit in zip(self.gaps, self.limits)]

    def check(self, z: np.ndarray, z_prev: np.ndarray, totals: list[float], iteration: int,
              max_iter: int, tol: float):
        """The gap check at ``iteration``, at ``z``, the point of the last :meth:`values` call.

        It runs :meth:`certify` at ``z`` and its ``totals``.  Each row due
        counts the check and keeps its binding caps, the caps ``z`` fills.
        If they are its last check's and no failed attempt's, it has
        attempts left, no cap of radius zero (always filled, with a zero
        pivot in :func:`_kkt_solve`) and its gap trend (:func:`_ahead`) is
        more than ``_MAX_WAIT`` waits away, the row tries :meth:`finish`.
        Its next check is :func:`_next_check`'s, or ``max_iter``.  The
        finish asks whether the caps settled more often than the trend
        would: a row with every radius above zero, no failed attempt before
        this check and a gap within ``_FINISH_RATIO`` times its threshold
        waits at most ``_MAX_WAIT // 2`` waits.  A due row that met the stop,
        or is at ``max_iter``, stops and goes to ``results``.  Returns
        :meth:`take`'s ``z``, ``z_prev`` and ``totals`` for the rows still
        ascending, or None once no row is.
        """
        met = self.certify(z, totals, tol)
        sq = np.multiply(z, z, out=self.w)
        filled = np.greater_equal(np.add(sq[..., 0], sq[..., 1]), self.filled)
        stop = []
        for j in [j for j, due in enumerate(self.due) if due <= iteration]:
            self.checks[j] += 1
            limit = self.limits[j]
            ratio = self.gaps[j] / limit if limit > 0.0 else math.inf
            binding, tried = filled[j, : self.cap_counts[j]].tobytes(), self.tried[j]
            whole = self.problems[self.ids[j]].radii.all()
            settled = binding == self.binding[j] and binding not in tried
            self.binding[j] = binding
            if settled and len(tried) < _NEWTON_ATTEMPTS and iteration < max_iter and whole:
                if _ahead(iteration, ratio, self.last[j]) > _MAX_WAIT * GAP_EVERY:
                    met[j] = self.finish(j, z, totals[j], tol)
            most = _MAX_WAIT // 2 if whole and not tried and ratio < _FINISH_RATIO else _MAX_WAIT
            self.due[j] = min(_next_check(iteration, ratio, self.last[j], most), max_iter)
            self.last[j] = (iteration, ratio)
            if met[j] or iteration >= max_iter:
                stop.append(j)
        if not stop:
            return z, z_prev, totals
        x = self.rebuild(z)
        for j in stop:
            row = (self.restarts[j], self.gaps[j], met[j], self.checks[j], self.solves[j])
            self.results[self.ids[j]] = (x[j, : self.horizons[j]].copy(), iteration, *row)
        keep = [j for j in range(len(self.ids)) if j not in stop]
        return self.take(keep, z, z_prev, totals) if keep else None

    def finish(self, j: int, z: np.ndarray, total: float, tol: float) -> bool:
        """Try the Newton finish on row ``j`` at ``z``; whether it certified the row.

        Semismooth SQP in waypoint space (Qi & Sun 1993; Nocedal & Wright,
        ch. 18): :func:`_kkt_solve` holds the binding caps at ``|w_t| =
        r_t``, its Hessian's multipliers read off the gradient in ``z``,
        then off the last solve.  A free cap the step would break joins the
        binding set, or else the most negative multiplier's cap leaves it,
        and the solve is redone; otherwise the step is clamped into the caps
        and certified on a lockstep of the row alone.  A certified point with
        a total of at least ``total``, the ascent's, goes into ``z[j]`` and
        its gap into ``gaps``; after ``_NEWTON_SOLVES`` solves or a singular
        pivot the attempt changes nothing but the counts.
        """
        problem, caps = self.problems[self.ids[j]], self.cap_counts[j]
        us, r = problem.utilities, problem.radii
        active = np.frombuffer(self.binding[j], dtype=bool).copy()
        solo = _Lockstep([problem], [None])
        solo.u0 = [self.u0[j]]
        zr, nu, x = z[j : j + 1, :caps].copy(), None, None
        with np.errstate(all="ignore"):  # a step that overflows certifies nothing
            for _ in range(_NEWTON_SOLVES):
                if x is None:
                    gx, g = solo.gradient(solo.rebuild(zr))
                    x, w = solo.x[0].copy(), zr[0]
                    ww = (w * w).sum(axis=1)
                    if nu is None:  # the multipliers whose pulls nu_t w_t best match g
                        nu = np.maximum((g[0] * w).sum(axis=1), 0.0) / np.maximum(ww, _TINY)
                    point = (us.hessian_blocks(x), gx[0].copy(), w, 0.5 * (ww - r * r))
                step = _kkt_solve(*point, nu, active)
                self.solves[j] += 1
                if step is None:
                    break
                x_new = x + step[0]
                w_new = x_new[1:] - x_new[:-1] - problem.centers
                broken = ~active & ((w_new * w_new).sum(axis=1) > r * r)
                if broken.any():
                    active |= broken
                elif step[1].min(initial=0.0) < 0.0:
                    active[np.argmin(step[1])] = False
                else:
                    zr = _clamp_balls(w_new, r, solo.floors[0])[None]
                    totals = solo.values(zr)
                    self.checks[j] += 1
                    if solo.certify(zr, totals, tol)[0] and totals[0] >= total:
                        z[j, :caps] = zr[0]
                        self.gaps[j] = solo.gaps[0]
                        return True
                    nu, x = step[1], None
        self.tried[j] += (self.binding[j],)
        return False

    def _rigid_run_point(self, z: np.ndarray) -> None:
        """Set ``lam`` to the gradient in ``z`` at the best placement of the iterate's rigid runs.

        Each cap the iterate fills, ``|z_t| >= r_t (1 - 1e-9)``, is frozen;
        a real zero-radius cap is, a padded one never.  A maximal run of
        waypoints joined by frozen caps then moves as one rigid body to the
        place the family's :meth:`rigid_optimum` gives it; the run that holds
        the start stays.  That point ``x_hat`` may break the free caps: any
        ``lam`` bounds the shortfall.  Each run after a free cap sums its
        gradient to zero at ``x_hat``, so ``lam`` vanishes on every free cap,
        and the residuals sum to ``|x_hat - x|^2 / 2``: the bound is second
        order where the Frank-Wolfe gap is first order.  With every cap free
        it is the unconstrained shortfall; with every cap filled, the
        Frank-Wolfe gap.  Padded slots are runs of their own, and their
        gradient is zero.  The suffix sums are :meth:`gradient`'s, on
        :func:`_pairs` views with the float accumulate's bits.
        """
        sq = np.multiply(z, z, out=self.w)
        np.less(np.add(sq[..., 0], sq[..., 1], out=self.norms), self.filled, out=self.free)
        edges = np.flatnonzero(self.firsts)
        pinned = np.searchsorted(edges, self.row_firsts)
        x_hat = self.family.rigid_optimum(self.x, edges, pinned, self.adjoint)
        _check_out(x_hat, self.adjoint, self.family, "rigid_optimum")
        grad = self.family.gradient_array(x_hat, out=x_hat)
        _check_out(grad, x_hat, self.family, "gradient_array")
        if self.pad is not None:
            np.put(grad, self.pad, -0.0)
        # lam_t sums grad[:, s] over s > t; grad is adjoint
        np.add.accumulate(self.adjoint_pairs_rev, axis=1, out=self.lam_pairs_rev)

    def _dual_step_terms(
        self, gx: np.ndarray, g: np.ndarray, z_by_axis: np.ndarray, kappa: np.ndarray
    ) -> np.ndarray:
        """Per cap ``t``, the bound's terms at ``lam = blocksoft(g + eta z, eta r)``.

        ``eta_t = 1 / (kappa_t + kappa_{t+1})``, with ``kappa_0 = 0`` for the
        pinned start, inverts the diagonal of the conjugates' curvature
        ``D diag(kappa) D^T`` in ``lam``.
        """
        eta = np.add(kappa[:, :-1], kappa[:, 1:], out=self.eta)
        np.divide(_ONE, eta, out=eta)
        v = _scale_rows(z_by_axis, self.eta_by_axis, self.w)
        np.add(g, v, out=v)
        n = np.hypot(*self.w_coords, out=self.norms)
        shrink = np.multiply(eta, self.radii, out=self.scales)
        np.maximum(np.subtract(n, shrink, out=shrink), _ZERO, out=shrink)
        np.divide(shrink, np.maximum(n, _TINY, out=n), out=shrink)
        _scale_rows(self.w_by_axis, self.scales_by_axis, self.lam)
        return self._bound_terms(gx, g, z_by_axis)

    def _bound_terms(self, gx: np.ndarray, g: np.ndarray, z_by_axis: np.ndarray) -> np.ndarray:
        """Per cap ``t``, the bound's terms at the multipliers in ``lam``.

        Term ``t`` is cap ``t``'s term plus slot ``t + 1``'s residual at ``a
        = grad U(x) + D^T (lam - g)``, each clamped at zero.
        """
        delta = _chain_adjoint(np.subtract(self.lam, g, out=self.w), out=self.adjoint)
        self.residuals = self.family.fenchel_young(
            self.x, gx, delta, self.terms, out=self.residuals
        )
        residuals = self.residuals[:, 1:]
        terms = self._cap_terms(self.lam_by_axis, z_by_axis)
        return np.add(terms, np.maximum(residuals, _ZERO, out=residuals), out=terms)


def _ahead(iteration: int, ratio: float, last: tuple[int, float] | None) -> float:
    """How many iterations after ``iteration`` a row's gap trend reaches its stop; 0 for none.

    ``ratio`` is the check's gap over the stop's threshold, ``last`` the
    row's check before, an iteration and its ratio.  The gap falls about
    geometrically: the line through the logs of the two ratios meets 1
    there.  A row without an earlier check, or whose ratio did not fall,
    has no trend.
    """
    fall = last[1] / ratio if last is not None and 1.0 < ratio < math.inf else 0.0
    if not fall > 1.0:
        return 0.0
    return math.log(ratio) * (iteration - last[0]) / math.log(fall)


def _next_check(
    iteration: int, ratio: float, last: tuple[int, float] | None, most: int = _MAX_WAIT
) -> int:
    """When a row checks next, after a failing check at ``iteration``.

    The wait until :func:`_ahead`'s iteration, rounded down to a multiple of
    :data:`GAP_EVERY` and kept between one and ``most`` of them:
    ``_MAX_WAIT`` by default, and ``_MAX_WAIT // 2`` for a row whose Newton
    finish may start soon (:meth:`_Lockstep.check`).
    """
    waits = int(min(_ahead(iteration, ratio, last), most * GAP_EVERY)) // GAP_EVERY
    return iteration + max(waits, 1) * GAP_EVERY


def _kkt_solve(
    hess: np.ndarray, grad: np.ndarray, w: np.ndarray, phi: np.ndarray, nu: np.ndarray, active
) -> tuple[np.ndarray, np.ndarray] | None:
    """The Newton step ``(dx, nu_new)`` on the KKT system that holds the ``active`` caps.

    ``hess`` ``(T, 3)`` and ``grad`` ``(T, 2)`` are each slot's Hessian
    blocks and gradient, ``w`` the cap displacements, ``phi`` ``(|w|^2 -
    r^2) / 2`` and ``nu`` the Hessian's multipliers.  With ``x_0`` pinned,
    per slot ``s`` and active cap ``t``: ``(H_s - (nu_{s-1} + nu_s) I) dx_s
    + nu_{s-1} dx_{s-1} + nu_s dx_{s+1} - w_{s-1} nu'_{s-1} + w_s nu'_s =
    -grad_s`` and ``<w_t, dx_t - dx_{t+1}> = phi_t``, free caps left out.
    In slot unknowns ``(dx_s, nu'_{s-1})`` it is block tridiagonal, blocks
    at most 3 x 3, and only ``dx_s``'s rows reach the next block, through
    ``[nu_s I | w_s]``: block elimination carries the ``dx`` part ``P`` of
    each eliminated block's inverse, in O(T) float arithmetic.  A block
    pivots on its ``dx`` part, then its multiplier, which for ``H_s``
    negative definite and ``nu >= 0`` are negative and positive definite
    (Haynsworth inertia additivity); a pivot that is not, as for a zero
    ``H_s`` or a zero-radius cap, returns None.
    """
    nu = np.where(active, nu, 0.0)
    shift = nu.copy()  # per slot s >= 1, nu_{s-1} + nu_s
    shift[:-1] += nu[1:]
    diag = (hess[1:] - shift[:, None] * [1.0, 0.0, 1.0]).tolist()
    blocks = list(zip(diag, *(a.tolist() for a in (grad[1:], w, phi, nu, active))))
    p00 = p01 = p11 = q0 = q1 = 0.0
    sweep = []
    for (a00, a01, a11), (g0, g1), (w0, w1), f, n, on in blocks:
        y0, y1 = -g0, -g1
        if on:
            # fold the previous block in: S = D - C^T P C
            pw0, pw1 = p00 * w0 + p01 * w1, p01 * w0 + p11 * w1
            nn = n * n
            a00, a01, a11 = a00 - nn * p00, a01 - nn * p01, a11 - nn * p11
            b0, b1, d = -w0 - n * pw0, -w1 - n * pw1, -(w0 * pw0 + w1 * pw1)
            yv = f - (w0 * q0 + w1 * q1)
            y0, y1 = y0 - n * q0, y1 - n * q1
        det = a00 * a11 - a01 * a01
        if not det > 0.0:
            return None
        p00, p01, p11 = a11 / det, -a01 / det, a00 / det
        q0, q1 = p00 * y0 + p01 * y1, p01 * y0 + p11 * y1
        v = m0 = m1 = 0.0
        if on:
            k0, k1 = p00 * b0 + p01 * b1, p01 * b0 + p11 * b1
            e = d - (b0 * k0 + b1 * k1)
            if not e > 0.0:
                return None
            m0, m1 = k0 / e, k1 / e
            v = (yv - (k0 * y0 + k1 * y1)) / e
            q0, q1 = q0 - k0 * v, q1 - k1 * v
            p00, p01, p11 = p00 + k0 * m0, p01 + k0 * m1, p11 + k1 * m1
        sweep.append((q0, q1, p00, p01, p11, v, m0, m1))
    dx, nu_new = [], []
    t0 = t1 = 0.0
    for (q0, q1, p00, p01, p11, v, m0, m1), block in zip(sweep[::-1], blocks[::-1]):
        (w0, w1), n, on = block[2], block[4], block[5]
        x0, x1 = q0 - (p00 * t0 + p01 * t1), q1 - (p01 * t0 + p11 * t1)
        nv = v + (m0 * t0 + m1 * t1) if on else 0.0
        dx.append((x0, x1))
        nu_new.append(nv)
        # C_{s-1} times this block's unknowns, for the block before
        t0, t1 = (n * x0 + w0 * nv, n * x1 + w1 * nv) if on else (0.0, 0.0)
    dx.append((0.0, 0.0))
    return np.array(dx[::-1]), np.array(nu_new[::-1])


def _ascend(
    problems: Sequence[OfflineProblem], x0s: Sequence, max_iter: int, tol: float
) -> list[tuple[np.ndarray, int, int, float, bool, int, int]]:
    """Accelerated projected ascent on all rows at once, with per-row state.

    Momentum, the restart test, the gap stop, the check schedule and the
    iteration count are kept per row, and a row that stops leaves the
    lockstep; every numpy call covers all rows still ascending.  Each row is
    checked at iteration 0, then at the iterations :func:`_next_check`
    schedules after each failing check, and at ``max_iter``.  Each check is
    one :meth:`_Lockstep.check` call: it computes every row's gap, and only
    the rows due then act on theirs, so a row stops where it would stop
    alone.  A due row whose binding caps settled tries the Newton finish
    (:meth:`_Lockstep.finish`), which works on that row alone, and stops
    where the finish certifies it.

    A row restarts its momentum when its computed total falls.  The totals
    are computed only where that test needs them: a step whose gain the
    descent lemma proves in every row (:meth:`_Lockstep.rose`) cannot fall,
    so it skips them.  Otherwise the test runs on the computed totals at
    the iterate, computed first if skipped, and at the step.  So every
    restart, and with it every iterate, is the one the totals of every step
    would give.  A check reads the totals, waypoints and slot terms at its
    iterate, computing them unless the last totals computed were those.
    Returns each row's waypoints, iteration count, restart count, gap,
    whether the gap met the stop, check count and Newton solves.  The
    iterates ``z``, ``z_prev`` and ``z_new`` take turns in three arrays.
    """
    st = _Lockstep(problems, x0s)
    z, z_prev, z_new = st.z0, st.z0.copy(), np.empty_like(st.z0)
    f_curr = list(st.u0)
    iterations = next_due = 0
    # whether f_curr, and the waypoints and slot terms in st, are z's
    fresh = True
    while True:
        if iterations >= next_due:
            if not fresh:
                f_curr, fresh = st.values(z), True
            left = st.check(z, z_prev, f_curr, iterations, max_iter, tol)
            if left is None:
                return st.results
            z, z_prev, f_curr = left
            if z_new.shape != z.shape:
                z_new = np.empty_like(z)
            next_due = min(st.due)
            margins = st.margins(f_curr)
        iterations += 1
        t_next = [0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t)) for t in st.t_k]
        beta = row_scalars([(t - 1.0) / tn for t, tn in zip(st.t_k, t_next)])
        y = np.subtract(z, z_prev, out=st.y)
        np.add(z, np.multiply(beta, y, out=y), out=y)
        z_new = st.ascent_step(y, out=z_new)
        if st.rose(z, y, z_new, margins):
            fresh = False
        else:
            if not fresh:
                f_curr = st.values(z)
            f_new = st.values(z_new)
            back = [j for j, (fn, fc) in enumerate(zip(f_new, f_curr)) if fn < fc]
            fresh = not back
            if back:
                # momentum overshoot: restart these rows from a plain projected step
                z_back = st.ascent_step(z)
                for j, f in zip(back, st.values(z_back, back)):
                    st.restarts[j] += 1
                    t_next[j] = 1.0
                    f_new[j] = f
                z_new[back] = z_back[back]
            f_curr = f_new
            margins = st.margins(f_curr)
        z_prev, z, z_new, st.t_k = z, z_new, z_prev, t_next


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
    restarts whenever a step lowers the computed objective.  The descent
    lemma (Beck & Teboulle 2009, Lemma 2.3) proves most steps rose by more
    than rounding from the iterates alone, and the objective is computed
    only for the steps it leaves unsure and at the gap checks.  The step
    size follows from the horizon.

    At checks the solve computes a duality gap at its iterate, an upper
    bound on how far the optimum lies above it: the smaller of the
    Frank-Wolfe gap and a second bound at other cap multipliers, the
    gradient at the best placement of the iterate's rigid runs for a
    squared commute and one preconditioned step for a row whose conjugates
    differ in curvature (see ``_Lockstep.certify``).  It stops once the gap
    is at most ``tol * max(1, U(x) - U(x0))``, where ``x0`` is the starting
    trajectory; ``converged`` says that this held, and ``gap`` carries the
    bound.  The first check is at iteration 0.  After a failing one, the
    next waits until the gap's geometric trend over the last two checks
    reaches the threshold: a whole number of :data:`GAP_EVERY` iterations,
    from one to four of them (``_next_check``), and at most two for a row
    that can still start the Newton finish below and whose gap is within
    45 times its threshold (``_Lockstep.check``).  At ``max_iter`` the solve
    checks once more and stops uncertified unless that check passes.
    ``checks`` counts the gaps computed, ``restarts`` the momentum restarts.

    The region membership is verified afterwards.  In the rare case that
    the box binds, the row is solved again alone in waypoint space
    (:func:`_solve_boxed`): the box is a clip there, and the caps carry an
    augmented Lagrangian whose duality gap certifies the row under the same
    stop and the same ``max_iter``.

    Where a row's binding caps are the same at two checks and the gap trend
    puts the stop more than four waits away, an active-set Newton finish
    (``_Lockstep.finish``) solves the O(T) KKT system of those caps, and a
    step that the gap certifies ends the row; ``iterations`` stays the
    ascent's, ``newton_solves`` counts the KKT solves and ``checks`` the
    finish's certifications too.  On the benchmark's T = 128 Huber commute
    it certifies every row at iteration 130-160, in 2-4 solves.  A failed
    attempt leaves the iterate as it was, and the row's checks go back to
    the gap trend's waits.

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
    x, iterations, restarts, gap, met, checks, solves = ascent
    cons = (problem.start, problem.centers, problem.radii, problem.region)
    box_excess, violation = _violation(x, *cons)
    if box_excess > 1e-9:
        x, iterations, restarts, gap, met, checks, solves = _solve_boxed(problem, x0, max_iter, tol)
        violation = _violation(x, *cons)[1]
    converged = violation <= 1e-6 and met
    warning = f"final violation {violation:.3e} above 1e-6" if violation > 1e-6 else None
    pts = points(x[:, 0], x[:, 1])
    return OfflineSolution(
        points=pts,
        utility=us.total(x),
        iterations=iterations,
        converged=converged,
        max_violation=violation,
        warning=warning,
        restarts=restarts,
        gap=gap,
        checks=checks,
        newton_solves=solves,
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


def _chain_adjoint(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``D^T v`` for the steps ``(D x)_t = x_{t+1} - x_t``; ``v`` is ``(..., T - 1, 2)``.

    Written into ``out`` if given.
    """
    if out is None:
        out = np.empty(v.shape[:-2] + (v.shape[-2] + 1, 2))
    out[..., 0, :] = 0.0
    out[..., 1:, :] = v
    out[..., :-1, :] -= v
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
) -> tuple[np.ndarray, int, int, float, bool, int, int]:
    """Augmented-Lagrangian ascent of one box-binding row over its waypoints.

    The box and the start pin are a clip; the caps ``|w_t| <= r_t``, ``w = D x
    - centers``, add ``-rho/2 sum_t dist(w_t + lam_t / rho, B(0, r_t))^2``
    (Bertsekas 1982, ch. 2).  Rounds of FISTA with gradient restarts
    (O'Donoghue & Candes 2015) each end with ``lam`` taking the excess.
    ``l(x) = U(x) - sum <lam_t, w_t> + sum r_t |lam_t| >= U`` where the caps
    hold, so ``l`` plus its box gap bounds the optimum; the gap is that bound
    minus the utility of the :func:`_retract`-ed iterate.  The row starts at
    ``x0`` clipped into the box, or else stays put.  Its checks count the
    rounds' box gaps, every :data:`GAP_EVERY` iterations, and their bounds;
    it makes no Newton solves.
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
    rho = us.smoothness
    violation = math.inf
    inner = _INNER_SHARE * tol
    iterations = restarts = checks = 0

    def excess(x: np.ndarray) -> np.ndarray:
        q = x[1:] - x[:-1] - shift  # w + lam / rho
        return q - _clamp_balls(q, radii, floors)

    def ascent(x: np.ndarray) -> np.ndarray:
        return us.gradient_array(x) - rho * _chain_adjoint(excess(x))

    while True:
        shift = centers - lam / rho
        step = 1.0 / (us.smoothness + 4.0 * rho)
        x_prev, t_k, k = x, 1.0, 0
        while iterations < max_iter:
            if k % GAP_EVERY == 0:
                checks += 1
                if _box_gap(ascent(x), x, lo, hi) <= inner:
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
        # a retraction that still breaks a cap certifies nothing: the round goes on
        cap_gap = _violation(x_f, problem.start, centers, radii, problem.region)[1]
        gap = max(bound - u, 0.0) if cap_gap <= 1e-9 else math.inf
        met = gap <= tol * max(1.0, u - u0)
        checks += 1
        if met or iterations >= max_iter:
            return x_f, iterations, restarts, gap, met, checks, 0
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


def _oracle_table(problem: OfflineProblem, grid: OracleGrid) -> tuple[np.ndarray, np.ndarray]:
    """The grid's nodes and the start that lie in the region, and their ``(T, n)`` utilities.

    One comparison pass and one ``slot_terms`` call on the nodes broadcast
    to ``(n, T, 2)``: the bits of each node's ``contains`` and ``evaluate``.
    """
    nodes = grid.nodes(extra=[problem.start])
    lo, hi = np.subtract(problem.region.lo, 1e-9), np.add(problem.region.hi, 1e-9)
    nodes = nodes[((lo <= nodes) & (nodes <= hi)).all(axis=1)]
    n, T, us = len(nodes), problem.horizon, problem.utilities
    terms = us.slot_terms(np.broadcast_to(nodes[:, None], (n, T, 2)))
    return nodes, us.total_scale * terms.reshape(n, T, -1).sum(axis=2).T


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
    nodes, utilities = _oracle_table(problem, grid)
    n = len(nodes)
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


def squared_path_length(traj: Sequence[Point] | np.ndarray) -> float:
    """Sum of squared displacements along a trajectory, a point list or ``(T, 2)`` array.

    Each square is ``norm_sq(sub(b, a))``'s, and the sum keeps ``left_sum``'s bits.
    """
    x = as_array(traj)
    if len(x) <= 1:
        return 0.0
    with np.errstate(all="ignore"):  # as quiet as float arithmetic
        d = x[1:] - x[:-1]
        d0, d1 = d[:, 0], d[:, 1]
        return left_sum_array(d0 * d0 + d1 * d1)


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
    """Sum of per-slot squared error bounds.

    A negative entry raises ``ValueError`` naming the first one.  The sum is
    :func:`~trajsim.geom.left_sum`'s from 0.0, taken as an array pass.
    """
    e = np.asarray(eps_sq, dtype=float)
    negative = np.flatnonzero(e < 0.0)
    if len(negative):
        i = int(negative[0])
        raise ValueError(f"eps_sq[{i}] = {eps_sq[i]} is negative")
    with np.errstate(all="ignore"):  # as quiet as float arithmetic
        return left_sum_array(e)


def step_energies(
    path: np.ndarray, currents: np.ndarray | None, c_d: float, tau: float
) -> np.ndarray:
    """Per step of a ``(T, 2)`` path, the cubed-relative-speed drag energy, in joules.

    A step from ``a`` to ``b`` costs ``c_d * |(b - a) / tau - u|^3 * tau``,
    with ``u`` the current met at ``a``, in m/s: one row of the ``(T - 1,
    2)`` ``currents``, or still water for ``None``.  ``0.0 +`` makes each
    the one-step :func:`energy_cost`, which never reads -0.0.
    """
    with np.errstate(all="ignore"):  # as quiet as float arithmetic
        rel = (path[1:] - path[:-1]) / tau
        if currents is not None:
            rel -= currents
        return 0.0 + c_d * powers(mapped(math.hypot, *rel.T), 3) * tau


def energy_cost(
    traj: Sequence[Point],
    fld: VelocityField | None,
    c_d: float,
    slot_duration: float = 1.0,
) -> float:
    """Drag energy of a trajectory, in joules: its :func:`step_energies` summed.

    The current is sampled at each step's starting waypoint, in slot order;
    a ``None`` field means still water.  The energies are added left to
    right from 0.0.
    """
    if slot_duration <= 0.0:
        raise ValueError("slot duration must be positive")
    tau = slot_duration
    x = as_array(traj)
    if len(x) < 2:
        return 0.0
    currents = None
    if fld is not None:
        currents = as_array([sample_velocity(fld, a, t * tau) for t, a in enumerate(traj[:-1])])
    with np.errstate(all="ignore"):  # as quiet as float arithmetic
        return left_sum_array(step_energies(x, currents, c_d, tau))


def straight_line_trajectory(s: Point, d: Point, T: int) -> list[Point]:
    """Uniformly spaced waypoints from ``s`` to ``d`` over ``T`` slots.

    Waypoint ``t`` is ``lerp(s, d, t / (T - 1))``, computed as one array pass.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if T == 1:
        return [s]
    w = np.arange(T) / (T - 1)
    with np.errstate(all="ignore"):  # as quiet as float arithmetic
        return points(s[0] + w * (d[0] - s[0]), s[1] + w * (d[1] - s[1]))


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
    solver_newton_solves: int = 0
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
    report: EpisodeReport, solution: OfflineSolution | None = None
) -> RegretReport:
    """The episode's comparison report against its offline benchmark ``report.problem``.

    ``solution`` is that benchmark's :func:`solve_offline` result warm-started
    at the episode's trajectory (a sweep solves its rows together); without
    it the benchmark is solved here.
    """
    problem, traj, cfg = report.problem, report.trajectory, report.config
    sol = solution if solution is not None else solve_offline(problem, x0=traj)
    us = problem.utilities
    x = as_array(sol.points)
    offline_u = tuple(us.evaluate(x))
    online_u = tuple(report.utilities)
    gv = gradient_variation(us, problem.region)
    straight = straight_line_trajectory(traj[0], report.goals[-1], len(traj))
    fld = cfg.ocean_field if report.kind == "ocean" else None
    return RegretReport(
        offline_utilities=offline_u,
        online_utilities=online_u,
        regret=left_sum(offline_u) - left_sum(online_u),
        s_t=squared_path_length(x),
        g_t=gv.value,
        g_t_exact=gv.exact,
        e_t_bound=cumulative_error(report.records.eps_sq_bound),
        e_t_realized=cumulative_error(report.records.eps_sq_realized),
        energy_online=report.energy_total,
        energy_straight=energy_cost(straight, fld, cfg.drag_coefficient, cfg.slot_duration_s),
        final_goal_distance=report.final_goal_distance,
        solver_converged=sol.converged,
        solver_warning=sol.warning,
        solver_iterations=sol.iterations,
        solver_restarts=sol.restarts,
        solver_newton_solves=sol.newton_solves,
        offline_gap=sol.gap,
    )
