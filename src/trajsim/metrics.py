"""Offline benchmark solver, brute-force oracle, and scalar metrics.

The offline benchmark maximizes the summed per-slot utilities over a whole
trajectory at once, subject to the same coupled displacement caps the online
agent faced; its value anchors the regret numbers in every report.  The
caps, the start pin and the box are held as arrays: the ascent, the Dykstra
projection of its box-binding fallback and the certification of every
solution all work on them directly.  The dynamic-programming oracle
re-solves small instances on a grid and exists purely to validate the
solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .errors import GridTooCoarse, HorizonMismatch
from .field import VelocityField, sample_velocity
from .geom import Point, as_point, dist, lerp, norm_sq, sub
from .objectives import Utilities, row_scalars
from .sets import Box2D, StepCap

# largest oracle lattice per axis: the DP holds (nodes x nodes) per slot
ORACLE_MAX_NODES = 101


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
    """The padded ``(R, tmax, ...)`` arrays of the rows still ascending.

    Displacements, cap centers and radii are zero-padded past each row's
    ``T - 1`` caps; a padded cap has radius zero, so its displacement stays
    zero.  ``z0`` holds the warm starts.  The waypoint and displacement
    buffers are reused by every rebuild.
    """

    def __init__(self, problems: Sequence[OfflineProblem], x0s: Sequence):
        tmax = max(p.horizon for p in problems)
        n = len(problems)
        self.family = problems[0].utilities.stack([p.utilities for p in problems])
        self.starts = np.array([p.start for p in problems])
        self.centers = np.zeros((n, tmax - 1, 2))
        self.radii = np.zeros((n, tmax - 1))
        self.z0 = np.zeros((n, tmax - 1, 2))
        for r, (p, x0) in enumerate(zip(problems, x0s)):
            caps = slice(0, p.horizon - 1)
            self.centers[r, caps] = p.centers
            self.radii[r, caps] = p.radii
            if x0 is not None and len(x0) == p.horizon:
                xa = np.asarray(x0, dtype=float)
                floors = np.maximum(p.radii, np.finfo(float).tiny)
                self.z0[r, caps] = _clamp_balls(xa[1:] - xa[:-1] - p.centers, p.radii, floors)
        self.steps = [_step_size(p) for p in problems]
        self._buffers()

    def _buffers(self) -> None:
        self.floors = np.maximum(self.radii, np.finfo(float).tiny)
        self.step = row_scalars(self.steps)
        self.x = np.empty((len(self.starts), self.centers.shape[1] + 1, 2))
        self.x[:, 0] = self.starts
        self.disp = np.empty_like(self.centers)
        # the start of each row at each later slot: a broadcast along the
        # short last axis costs more than the addition itself
        self.start_rest = np.repeat(self.starts[:, None], self.centers.shape[1], axis=1)

    def take(self, rows: list[int]) -> None:
        """Keep only the given rows, trimmed to their longest horizon."""
        self.family = self.family.take(rows)
        keep = max(self.family.horizons) - 1
        idx = np.asarray(rows)
        self.starts = self.starts[idx]
        self.centers = self.centers[idx, :keep]
        self.radii = self.radii[idx, :keep]
        self.steps = [self.steps[r] for r in rows]
        self._buffers()

    def rebuild(self, z: np.ndarray) -> np.ndarray:
        """Waypoints from start + per-slot displacements ``center + z``."""
        np.add(self.centers, z, out=self.disp)
        rest = self.x[:, 1:]
        np.add.accumulate(self.disp, axis=1, out=rest)
        np.add(rest, self.start_rest, out=rest)
        return self.x

    def values(self, z: np.ndarray, rows: Iterable[int]) -> list[float]:
        return self.family.totals(self.rebuild(z), rows)

    def ascent_step(self, z: np.ndarray) -> np.ndarray:
        """Projected gradient step from ``z``; the gradient in z is a suffix sum."""
        gx = self.family.gradient_array(self.rebuild(z))
        grad = np.add.accumulate(gx[:, ::-1], axis=1)[:, ::-1][:, 1:]
        return _clamp_balls(z + self.step * grad, self.radii, self.floors)


def _ascend(
    problems: Sequence[OfflineProblem], x0s: Sequence, max_iter: int, tol: float
) -> list[tuple[np.ndarray, int, int]]:
    """Accelerated projected ascent on all rows at once, with per-row state.

    Momentum, the restart test, the flat-streak stop and the iteration count
    are kept per row, and a row that stops leaves the stack; every numpy call
    covers all rows still ascending.  Returns each row's waypoints, iteration
    count and restart count.
    """
    st = _Lockstep(problems, x0s)
    ids = list(range(len(problems)))  # problem index of each stacked row
    z = z_prev = st.z0
    t_k = [1.0] * len(ids)
    f_curr = st.values(z, range(len(ids)))
    streak = [0] * len(ids)
    restarts = [0] * len(ids)
    out: list = [None] * len(ids)
    iterations = 0

    def record(rows: list[int]) -> None:
        x = st.rebuild(z)
        for j in rows:
            out[ids[j]] = (x[j, : st.family.horizons[j]].copy(), iterations, restarts[j])

    while ids and iterations < max_iter:
        iterations += 1
        t_next = [0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t)) for t in t_k]
        y = z + row_scalars([(t - 1.0) / tn for t, tn in zip(t_k, t_next)]) * (z - z_prev)
        z_new = st.ascent_step(y)
        f_new = st.values(z_new, range(len(ids)))
        back = [j for j, (fn, fc) in enumerate(zip(f_new, f_curr)) if fn < fc]
        if back:
            # momentum overshoot: restart these rows from a plain projected step
            z_back = st.ascent_step(z)
            for j, f in zip(back, st.values(z_back, back)):
                restarts[j] += 1
                t_next[j] = 1.0
                f_new[j] = f
            z_new[back] = z_back[back]
        z_prev, z, t_k = z, z_new, t_next
        keep = []
        for j, (fn, fc) in enumerate(zip(f_new, f_curr)):
            if abs(fn - fc) > tol * (1.0 + abs(fn)):
                streak[j] = 0
            else:
                streak[j] += 1
            if streak[j] < 3 and iterations < max_iter:
                keep.append(j)
        f_curr = f_new
        if len(keep) < len(ids):
            kept = set(keep)
            record([j for j in range(len(ids)) if j not in kept])
            if keep:
                st.take(keep)
                width = st.centers.shape[1]
                z, z_prev = z[keep, :width], z_prev[keep, :width]
            ids, t_k, f_curr, streak, restarts = (
                [seq[j] for j in keep] for seq in (ids, t_k, f_curr, streak, restarts)
            )
    if ids:  # max_iter < 1: no step taken
        record(list(range(len(ids))))
    return out


def solve_offline(
    problem: OfflineProblem,
    max_iter: int = 100_000,
    tol: float = 1e-10,
    x0: Sequence[Point] | None = None,
) -> OfflineSolution:
    """Maximize the summed utilities over the whole trajectory at once.

    Accelerated projected gradient ascent (FISTA, Beck & Teboulle 2009) in
    displacement coordinates ``z_t = x_{t+1} - x_t - center_t``, where the
    coupled caps become independent balls with exact closed-form
    projections; the waypoints are rebuilt by prefix sums.  Momentum
    restarts whenever the objective decreases.  Terminates when the utility
    improvement stays below ``tol * (1 + |utility|)`` for three iterations
    in a row or at ``max_iter``.  The step size follows from the horizon.

    The region membership is verified afterwards; in the rare case it
    binds, the solve falls back to plain projected ascent in waypoint space
    with a Dykstra projection restoring feasibility each iteration (exact,
    but slow when caps chain tightly).

    ``x0`` (e.g. the online trajectory the benchmark compares against)
    warm-starts the solve.  Dykstra stalls in the fallback are soft: the
    last iterate is kept and the returned solution carries a warning and
    its violation.  This is the batch of one of :func:`solve_offline_batch`.
    """
    return solve_offline_batch([problem], [x0], max_iter=max_iter, tol=tol)[0]


def solve_offline_batch(
    problems: Sequence[OfflineProblem],
    x0s: Sequence[Sequence[Point] | None] | None = None,
    max_iter: int = 100_000,
    tol: float = 1e-10,
) -> list[OfflineSolution]:
    """:func:`solve_offline` for many problems, their ascents run in lockstep.

    Problems whose utility families stack (same family and kind) ascend
    together in one padded computation, so each numpy call covers every
    row; solution ``r`` equals ``solve_offline(problems[r], x0=x0s[r])`` bit
    for bit.  A row that violates its region falls back alone.
    """
    if x0s is None:
        x0s = [None] * len(problems)
    groups: dict = {}
    for i, p in enumerate(problems):
        if p.horizon > 1:
            groups.setdefault(p.utilities.stack_key, []).append(i)
    ascents: dict[int, tuple[np.ndarray, int, int]] = {}
    for rows in groups.values():
        found = _ascend([problems[i] for i in rows], [x0s[i] for i in rows], max_iter, tol)
        ascents.update(zip(rows, found))
    return [_finish(p, ascents.get(i), max_iter, tol) for i, p in enumerate(problems)]


def _finish(
    problem: OfflineProblem, ascent: tuple[np.ndarray, int, int] | None, max_iter: int, tol: float
) -> OfflineSolution:
    """Check one ascent's waypoints against the region and certify them."""
    us = problem.utilities
    if ascent is None:  # T == 1: the start pin is the whole trajectory
        pts = [problem.start]
        return OfflineSolution(pts, us.total(pts), 0, True, 0.0)
    x, iterations, restarts = ascent
    cons = (problem.start, problem.centers, problem.radii, problem.region)
    box_excess, violation = _violation(x, *cons)
    warning = None
    if box_excess > 1e-9:
        x, warning = _solve_with_restoration(problem, x, max_iter=max_iter, tol=tol)
        violation = _violation(x, *cons)[1]
    converged = violation <= 1e-6 and iterations < max_iter
    if violation > 1e-6 and warning is None:
        warning = f"final violation {violation:.3e} above 1e-6"
    pts = [(p[0], p[1]) for p in x.tolist()]
    return OfflineSolution(
        points=pts,
        utility=us.total(pts),
        iterations=iterations,
        converged=converged,
        max_violation=violation,
        warning=warning,
        restarts=restarts,
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


def _project_caps(
    z: np.ndarray, idx: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Projection onto the caps of the disjoint waypoint pairs ``(idx, idx + 1)``.

    Projecting a single pair keeps its midpoint; each end absorbs half of
    the displacement correction.
    """
    a, b = z[idx], z[idx + 1]
    w = b - a - centers
    d = np.hypot(w[:, 0], w[:, 1])
    mask = d > radii
    if not mask.any():
        return z
    scale = np.ones_like(d)
    scale[mask] = radii[mask] / d[mask]
    u = np.where(mask[:, None], centers + w * scale[:, None], b - a)
    out = z.copy()
    out[idx] = (a + b - u) / 2.0
    out[idx + 1] = (a + b + u) / 2.0
    return out


def _clip_rows(z: np.ndarray, rows: slice, lo: Point, hi: Point) -> np.ndarray:
    out = z.copy()
    out[rows] = np.clip(z[rows], lo, hi)
    return out


def _dykstra(
    x: np.ndarray,
    start: Point,
    centers: np.ndarray,
    radii: np.ndarray,
    box: Box2D,
    max_iter: int = 500,
    tol: float = 1e-8,
) -> tuple[np.ndarray, float]:
    """Project waypoints ``x`` onto the intersection of the caps, the start pin and the box.

    Alternating projections with Dykstra's correction terms (Boyle & Dykstra
    1986), which converge to the exact Euclidean projection onto the
    intersection; plain cyclic projection would only find *a* feasible
    point.  A cycle projects onto the even caps and the odd caps (pairs
    that share no waypoint, one array operation each), then the start pin,
    then the box.  Stops after ``max_iter`` cycles, or once the largest
    violation is at most ``tol`` and no correction term changed by more
    than ``tol`` in the last cycle: a feasible iterate alone can still be
    far from the projection (Birgin & Raydan 2005).  Returns the last
    iterate and its violation.
    """
    z = np.array(x, dtype=float)
    residual = _violation(z, start, centers, radii, box)[1]
    if residual <= tol:
        return z, residual
    n = len(radii)
    projections = [
        partial(_project_caps, idx=idx, centers=centers[idx], radii=radii[idx])
        for idx in (np.arange(0, n, 2), np.arange(1, n, 2))
        if len(idx)
    ]
    projections += [
        partial(_clip_rows, rows=slice(0, 1), lo=start, hi=start),
        partial(_clip_rows, rows=slice(None), lo=box.lo, hi=box.hi),
    ]
    increments = [np.zeros_like(z) for _ in projections]
    for _ in range(max_iter):
        moved = 0.0
        for project, inc in zip(projections, increments):
            shifted = z + inc
            z_new = project(shifted)
            new_inc = shifted - z_new
            moved = max(moved, float(np.max(np.abs(new_inc - inc))))
            inc[...] = new_inc
            z = z_new
        residual = _violation(z, start, centers, radii, box)[1]
        if residual <= tol and moved <= tol:
            break
    return z, residual


def _solve_with_restoration(
    problem: OfflineProblem, warm: np.ndarray, max_iter: int, tol: float
) -> tuple[np.ndarray, str | None]:
    """Waypoint-space projected ascent with Dykstra feasibility restoration."""
    step = 1.0 / problem.smoothness
    cons = (problem.start, problem.centers, problem.radii, problem.region)
    x, _ = _dykstra(warm, *cons)
    warning = None
    us = problem.utilities
    prev = us.total(x)
    for _ in range(max_iter):
        x, residual = _dykstra(x + step * us.gradient_array(x), *cons, max_iter=3000)
        warning = None
        if not residual <= 1e-8:  # a NaN residual stalls too
            warning = f"feasibility restoration stalled at residual {residual:.3e}"
        value = us.total(x)
        improvement = abs(value - prev)
        prev = value
        if improvement <= tol * (1.0 + abs(value)):
            break
    return x, warning


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
    utilities = np.array(
        [[u((p[0], p[1])) for p in nodes] for u in problem.utilities.values]
    )  # (T, n)
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


def regret(
    offline_traj: Sequence[Point],
    online_traj: Sequence[Point],
    utilities: Utilities,
) -> float:
    """Cumulative utility gap of the online trajectory against the benchmark."""
    if len(offline_traj) != len(online_traj):
        raise HorizonMismatch(
            f"offline has {len(offline_traj)} slots, online {len(online_traj)}"
        )
    return utilities.total(offline_traj) - utilities.total(online_traj)


def squared_path_length(traj: Sequence[Point]) -> float:
    """Sum of squared displacements along a trajectory."""
    return sum(norm_sq(sub(b, a)) for a, b in zip(traj, traj[1:]))


@dataclass(frozen=True)
class GradientVariation:
    value: float
    exact: bool
    n_samples: int


def gradient_variation(
    utilities: Utilities,
    region: Box2D,
    n_samples: int = 256,
    seed: int = 0,
) -> GradientVariation:
    """Worst-case cumulative squared change of the gradient between slots.

    When the per-pair gradient difference is affine in the position, the
    inner maximum of the (convex) squared norm is attained at a vertex of
    the box and evaluated exactly; otherwise it is estimated by Monte Carlo
    over ``n_samples`` uniform points of the box, with the sample count
    reported.  The Monte-Carlo branch evaluates each sample at every slot
    through the family's ``gradient_array``.
    """
    diffs = utilities.affine_diffs
    if diffs is not None:
        corners = region.vertices()
        total = 0.0
        for a, b in zip(diffs[0].tolist(), diffs[1].tolist()):
            total += max(
                (a * c[0] + b[0]) ** 2 + (a * c[1] + b[1]) ** 2 for c in corners
            )
        return GradientVariation(value=total, exact=True, n_samples=0)
    rng = np.random.default_rng(seed)
    lo, hi = region.lo, region.hi
    xs = rng.uniform(lo[0], hi[0], n_samples)
    ys = rng.uniform(lo[1], hi[1], n_samples)
    samples = list(zip(xs.tolist(), ys.tolist()))
    # one sample at a time over all slots, keeping a running max per pair
    worst = np.zeros(max(utilities.horizon - 1, 0))
    x = np.empty((utilities.horizon, 2))
    for p in samples:
        x[:] = p
        g = utilities.gradient_array(x)
        diff = g[1:] - g[:-1]
        np.maximum(worst, diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1], out=worst)
    total = 0.0
    for w in worst.tolist():
        total += w
    return GradientVariation(value=total, exact=False, n_samples=len(samples))


def cumulative_error(eps_sq: Sequence[float]) -> float:
    """Sum of per-slot squared error bounds."""
    total = 0.0
    for i, e in enumerate(eps_sq):
        if e < 0.0:
            raise ValueError(f"eps_sq[{i}] = {e} is negative")
        total += e
    return total


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


def energy_conserved(
    traj: Sequence[Point],
    goal: Point,
    fld: VelocityField | None,
    c_d: float,
    slot_duration: float = 1.0,
) -> float:
    """Energy saved against the straight-line reference run over the same horizon."""
    reference = straight_line_trajectory(traj[0], goal, len(traj))
    return energy_cost(reference, fld, c_d, slot_duration) - energy_cost(
        traj, fld, c_d, slot_duration
    )


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

    @property
    def energy_conserved(self) -> float:
        return self.energy_straight - self.energy_online


def build_regret_report(
    problem: OfflineProblem,
    online_traj: Sequence[Point],
    online_utilities: Sequence[float],
    eps_sq_bounds: Sequence[float],
    eps_sq_realized: Sequence[float],
    goal: Point,
    fld: VelocityField | None,
    c_d: float,
    slot_duration: float = 1.0,
    solution: OfflineSolution | None = None,
) -> RegretReport:
    """Assemble the full comparison report against the offline benchmark.

    ``online_utilities`` are the per-slot utilities of ``online_traj``, as
    the episode evaluated them.  ``solution`` is the benchmark's
    :func:`solve_offline` result warm-started at ``online_traj`` (a sweep
    solves its rows together); without it the benchmark is solved here.
    """
    sol = solution if solution is not None else solve_offline(problem, x0=online_traj)
    us = problem.utilities
    offline_u = tuple(u(p) for u, p in zip(us.values, sol.points))
    online_u = tuple(online_utilities)
    gv = gradient_variation(us, problem.region)
    energy_online = energy_cost(online_traj, fld, c_d, slot_duration)
    straight = straight_line_trajectory(online_traj[0], goal, len(online_traj))
    return RegretReport(
        offline_utilities=offline_u,
        online_utilities=online_u,
        regret=sum(offline_u) - sum(online_u),
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
    )
