"""Offline benchmark solver, brute-force oracle, and scalar metrics.

The offline benchmark maximizes the summed per-slot utilities over a whole
trajectory at once, subject to the same coupled displacement caps the online
agent faced; its value anchors the regret numbers in every report.  The
dynamic-programming oracle re-solves small instances on a grid and exists
purely to validate the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GridTooCoarse, HorizonMismatch, NoConvergence
from .field import VelocityField, sample_velocity
from .geom import Point, Vector, dist, lerp, norm_sq, sub
from .sets import Box2D, Constraint, PointIn, Region, StepCap, constraint_violation, dykstra_project

UtilityFn = Callable[[Point], float]
GradientFn = Callable[[Point], Vector]


@dataclass(frozen=True)
class UtilitySequence:
    """Per-slot utilities ``U_t`` (t = 1..T) with their gradients.

    ``affine_diffs[t-1]``, when present, states that
    ``grad U_{t+1}(x) - grad U_t(x) == a * x + b`` for scalar ``a`` and
    vector ``b``; both families here satisfy this, which makes the
    worst-case gradient variation computable exactly over a box.

    ``batch_value`` and ``batch_gradient``, when present, evaluate all
    slots at once on a ``(T, 2)`` array and must agree with the per-slot
    callables; the solvers use them as a fast path.
    """

    values: tuple[UtilityFn, ...]
    gradients: tuple[GradientFn, ...]
    affine_diffs: tuple[tuple[float, Vector], ...] | None = None
    batch_value: Callable[[np.ndarray], float] | None = None
    batch_gradient: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if len(self.values) != len(self.gradients):
            raise ValueError("values and gradients must have equal length")
        if self.affine_diffs is not None and len(self.affine_diffs) != len(self.values) - 1:
            raise ValueError("need one affine difference per consecutive pair")

    @property
    def horizon(self) -> int:
        return len(self.values)

    def total(self, points: Sequence[Point]) -> float:
        if len(points) != self.horizon:
            raise HorizonMismatch(f"{len(points)} points for horizon {self.horizon}")
        if self.batch_value is not None:
            return float(self.batch_value(np.asarray(points, dtype=float)))
        return sum(u(p) for u, p in zip(self.values, points))

    def gradient_array(self, x: np.ndarray) -> np.ndarray:
        if self.batch_gradient is not None:
            return np.asarray(self.batch_gradient(x), dtype=float)
        return np.array([g((p[0], p[1])) for g, p in zip(self.gradients, x)], dtype=float)


@dataclass(frozen=True)
class OfflineProblem:
    """Full-horizon trajectory problem: start pin, utilities, caps, region."""

    start: Point
    utilities: UtilitySequence
    caps: tuple[StepCap, ...]
    region: Region
    smoothness: float = 2.0

    def __post_init__(self):
        T = self.utilities.horizon
        if len(self.caps) != T - 1:
            raise ValueError(f"need {T - 1} caps for horizon {T}")
        for i, cap in enumerate(self.caps):
            if cap.index != i:
                raise ValueError("caps must be indexed 0..T-2 in order")

    @property
    def horizon(self) -> int:
        return self.utilities.horizon

    def constraints(self) -> list[Constraint]:
        cons: list[Constraint] = [PointIn(0, Box2D(self.start, self.start))]
        cons.extend(self.caps)
        cons.extend(PointIn(i, self.region) for i in range(self.horizon))
        return cons


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


def _rebuild(start: Point, centers: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Waypoints from start + per-slot displacements ``center + z``."""
    x = np.empty((len(z) + 1, 2))
    x[0] = start
    rest = x[1:]
    np.add.accumulate(centers + z, axis=0, out=rest)
    rest += x[0]
    return x


def _clamp_balls(z: np.ndarray, radii: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Radial clamp of each row of ``z`` into its ball: ``z * r / max(|z|, r)``.

    ``floors`` is ``max(radii, tiny)``: a zero-radius cap then scales its
    displacement by ``0 / max(|z|, tiny) == 0`` instead of ``0 / 0``.  Rows
    inside their ball are scaled by exactly 1.
    """
    n = np.hypot(z[:, 0], z[:, 1])
    return z * (radii / np.maximum(n, floors))[:, None]


def solve_offline(
    problem: OfflineProblem,
    step: float | None = None,
    max_iter: int = 100_000,
    tol: float = 1e-10,
    x0: Sequence[Point] | None = None,
) -> OfflineSolution:
    """Maximize the summed utilities over the whole trajectory at once.

    Accelerated projected gradient ascent in displacement coordinates
    ``z_t = x_{t+1} - x_t - center_t``, where the coupled caps become
    independent balls with exact closed-form projections; the waypoints are
    rebuilt by prefix sums.  Momentum restarts whenever the objective
    decreases.  Terminates when the utility improvement stays below
    ``tol * (1 + |utility|)`` or at ``max_iter``.

    The region membership is verified afterwards; in the rare case it
    binds, the solve falls back to plain projected ascent in waypoint space
    with :func:`dykstra_project` restoring feasibility each iteration
    (exact, but slow when caps chain tightly).

    ``x0`` (e.g. the online trajectory the benchmark compares against)
    warm-starts the solve; ``step`` overrides the displacement-space step
    size.  Dykstra failures in the fallback are soft: the best iterate is
    kept and the returned solution carries a warning and its violation.
    """
    us = problem.utilities
    T = problem.horizon
    constraints = problem.constraints()
    if T == 1:
        pts = [problem.start]
        return OfflineSolution(pts, us.total(pts), 0, True, 0.0)
    centers = np.array([c.center for c in problem.caps])
    radii = np.array([c.radius for c in problem.caps])
    floors = np.maximum(radii, np.finfo(float).tiny)
    if x0 is not None and len(x0) == T:
        xa = np.asarray(x0, dtype=float)
        z = _clamp_balls(xa[1:] - xa[:-1] - centers, radii, floors)
    else:
        z = np.zeros((T - 1, 2))
    if step is None:
        # exact top singular value of the prefix-sum map from displacements
        # to waypoints; the chain makes the smoothness grow like T^2
        sigma = 1.0 / (2.0 * math.sin(math.pi / (2.0 * (2.0 * (T - 1) + 1.0))))
        step = 1.0 / (problem.smoothness * sigma * sigma)

    def value_of(zz: np.ndarray) -> float:
        return us.total(_rebuild(problem.start, centers, zz))

    def grad_z(zz: np.ndarray) -> np.ndarray:
        x = _rebuild(problem.start, centers, zz)
        gx = us.gradient_array(x)
        suffix = np.add.accumulate(gx[::-1], axis=0)[::-1]
        return suffix[1:]

    z_prev = z
    t_k = 1.0
    f_curr = value_of(z)
    flat_streak = 0
    iterations = 0
    restarts = 0
    for iterations in range(1, max_iter + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
        y = z + ((t_k - 1.0) / t_next) * (z - z_prev)
        z_new = _clamp_balls(y + step * grad_z(y), radii, floors)
        f_new = value_of(z_new)
        if f_new < f_curr:
            # momentum overshoot: restart from a plain projected step
            restarts += 1
            t_next = 1.0
            z_new = _clamp_balls(z + step * grad_z(z), radii, floors)
            f_new = value_of(z_new)
        z_prev, z, t_k = z, z_new, t_next
        if abs(f_new - f_curr) <= tol * (1.0 + abs(f_new)):
            flat_streak += 1
            if flat_streak >= 3:
                f_curr = f_new
                break
        else:
            flat_streak = 0
        f_curr = f_new
    xa = _rebuild(problem.start, centers, z)
    pts = [(float(p[0]), float(p[1])) for p in xa]
    warning = None
    if any(problem.region.violation(p) > 1e-9 for p in pts):
        pts, fb_warning = _solve_with_restoration(problem, pts, step=None, max_iter=max_iter, tol=tol)
        warning = fb_warning
    violation = constraint_violation(pts, constraints)
    converged = violation <= 1e-6 and iterations < max_iter
    if violation > 1e-6 and warning is None:
        warning = f"final violation {violation:.3e} above 1e-6"
    return OfflineSolution(
        points=pts,
        utility=us.total(pts),
        iterations=iterations,
        converged=converged,
        max_violation=violation,
        warning=warning,
        restarts=restarts,
    )


def _solve_with_restoration(
    problem: OfflineProblem,
    warm: list[Point],
    step: float | None,
    max_iter: int,
    tol: float,
) -> tuple[list[Point], str | None]:
    """Waypoint-space projected ascent with Dykstra feasibility restoration."""
    if step is None:
        step = 1.0 / problem.smoothness
    constraints = problem.constraints()
    pts = _restore(warm, constraints)
    warning = None
    grads = problem.utilities.gradients
    prev = problem.utilities.total(pts)
    for _ in range(max_iter):
        stepped = []
        for gr, p in zip(grads, pts):
            g = gr(p)
            stepped.append((p[0] + step * g[0], p[1] + step * g[1]))
        try:
            pts = dykstra_project(stepped, constraints, max_iter=3000, tol=1e-8)
            warning = None
        except NoConvergence as exc:
            pts = exc.points
            warning = f"feasibility restoration stalled at residual {exc.residual:.3e}"
        value = problem.utilities.total(pts)
        improvement = abs(value - prev)
        prev = value
        if improvement <= tol * (1.0 + abs(value)):
            break
    return pts, warning


def _restore(pts: list[Point], constraints) -> list[Point]:
    try:
        return dykstra_project(pts, constraints)
    except NoConvergence as exc:
        return exc.points


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
    if grid.nx > 101 or grid.ny > 101:
        raise ValueError("oracle grid limited to 101 x 101")
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
    for t in range(1, T):
        cap = problem.caps[t - 1]
        shifted = nodes + np.asarray(cap.center)  # reachable centers from each node
        d2 = (
            (shifted[:, None, 0] - nodes[None, :, 0]) ** 2
            + (shifted[:, None, 1] - nodes[None, :, 1]) ** 2
        )
        feasible = d2 <= (cap.radius + 1e-12) ** 2  # (from, to)
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
    utilities: UtilitySequence,
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
    utilities: UtilitySequence,
    region: Region,
    n_samples: int = 256,
    seed: int = 0,
) -> GradientVariation:
    """Worst-case cumulative squared change of the gradient between slots.

    When the per-pair gradient difference is affine in the position and the
    region is a box, the inner maximum of the (convex) squared norm is
    attained at a vertex and evaluated exactly; otherwise it is estimated by
    Monte Carlo over ``n_samples`` points of the region, with the sample
    count reported.  The Monte-Carlo branch evaluates each sample at every
    slot through :meth:`UtilitySequence.gradient_array`.
    """
    if utilities.affine_diffs is not None and isinstance(region, Box2D):
        corners = region.vertices()
        total = 0.0
        for a, b in utilities.affine_diffs:
            total += max(
                (a * c[0] + b[0]) ** 2 + (a * c[1] + b[1]) ** 2 for c in corners
            )
        return GradientVariation(value=total, exact=True, n_samples=0)
    rng = np.random.default_rng(seed)
    samples = _region_samples(region, n_samples, rng)
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


def _region_samples(region: Region, n: int, rng) -> list[Point]:
    if isinstance(region, Box2D):
        lo, hi = region.lo, region.hi
        xs = rng.uniform(lo[0], hi[0], n)
        ys = rng.uniform(lo[1], hi[1], n)
        return list(zip(xs.tolist(), ys.tolist()))
    # rejection from the bounding box for balls and polygons
    if hasattr(region, "center"):
        lo = (region.center[0] - region.radius, region.center[1] - region.radius)
        hi = (region.center[0] + region.radius, region.center[1] + region.radius)
    else:
        vs = region.vertices()
        if not vs:
            raise TypeError("cannot sample an unbounded polygon region")
        lo = (min(v[0] for v in vs), min(v[1] for v in vs))
        hi = (max(v[0] for v in vs), max(v[1] for v in vs))
    out: list[Point] = []
    attempts = 0
    while len(out) < n and attempts < 100 * n:
        attempts += 1
        p = (float(rng.uniform(lo[0], hi[0])), float(rng.uniform(lo[1], hi[1])))
        if region.contains(p, tol=0.0):
            out.append(p)
    return out


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
    eps_sq_bounds: Sequence[float],
    eps_sq_realized: Sequence[float],
    goal: Point,
    fld: VelocityField | None,
    c_d: float,
    slot_duration: float = 1.0,
    solver_step: float | None = None,
) -> RegretReport:
    """Solve the offline benchmark and assemble the full comparison report."""
    sol = solve_offline(problem, step=solver_step, x0=online_traj)
    us = problem.utilities
    offline_u = tuple(u(p) for u, p in zip(us.values, sol.points))
    online_u = tuple(u(p) for u, p in zip(us.values, online_traj))
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
