"""End-to-end experiment runners: commute, voyage, adversary game, sweeps.

A scenario resolves its configuration into per-slot schedules, drives the
engine one slot at a time, and assembles an :class:`EpisodeReport` holding
the trajectory, step records, per-slot series, and (optionally) the regret
report against the offline benchmark.
"""

from __future__ import annotations

import math
import random
import time
import warnings
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Literal, Sequence

import numpy as np

from . import objectives as obj
from .engine import Mode, NoiseModel, SlotPlan, StepRecord, normal_pair, run_episode, slot_seed
from .errors import SchemaError
from .field import FieldPerturbation, VelocityField, perturb_field, sample_velocity
from .geom import Point, Vector, dist, lerp, scale
from .metrics import (
    OfflineProblem,
    OfflineSolution,
    RegretReport,
    build_regret_report,
    energy_cost,
    solve_offline_batch,
)
from .sets import Box2D

# Offsets deriving independent per-purpose streams from the master seed.
_PEER_SEED_OFFSET = 1_000_003
_GRAD_SEED_OFFSET = 2_000_003
_FIELD_SEED_OFFSET = 3_000_003
_POLICY_SEED_OFFSET = 4_000_003

# Early-arrival latch: once this close to the goal (meters), the agent
# holds the goal instead of resuming the blended objective.
ARRIVAL_TOL_M = 1e-6

Kind = Literal["d2d", "ocean", "adversary"]


@dataclass(frozen=True)
class PathSpec:
    """A schedule that walks from one point toward another at fixed speed.

    ``speed_mps`` of zero (or equal endpoints) gives a static schedule; the
    walk clamps at the target once reached.
    """

    start: Point
    end: Point
    speed_mps: float = 0.0

    def at(self, t: int, slot_duration: float) -> Point:
        if self.speed_mps == 0.0:
            return self.start
        total = dist(self.start, self.end)
        if total == 0.0:
            return self.start
        travelled = min(self.speed_mps * slot_duration * (t - 1), total)
        return lerp(self.start, self.end, travelled / total)


@dataclass(frozen=True)
class AdversaryParams:
    horizon: int = 100
    width: float = 1.0
    policy: str = "zero"


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment; immutable and replayable."""

    kind: Kind
    start: Point = (0.0, 0.0)
    goal: PathSpec = PathSpec((0.0, 0.0), (0.0, 0.0))
    peer: PathSpec | None = None
    peer_noise_std_m: float = 0.0
    delta: int = 0
    v_max_mps: float = 1.0
    slot_duration_s: float = 1.0
    # commute parameters
    mu: float = 1e-3
    utility_kind: str = "squared"
    alpha_min: float = 0.05
    margin: float = 1.01
    alpha_p: float = 2.5
    bandwidth_hz: float = 1e7
    noise_power: float = 0.2
    # voyage parameters
    lambda_strategy: str = "direction_dependent"
    beta: float = 0.5
    drag_coefficient: float = 1.0
    ocean_field: VelocityField | None = None
    perturbation: FieldPerturbation | None = None
    # shared
    gradient_noise: NoiseModel = NoiseModel()
    seed: int = 0
    feasible_box: Box2D | None = None
    adversary: AdversaryParams | None = None

    def __post_init__(self):
        if self.delta < 0:
            raise SchemaError("delta", f"must be >= 0, got {self.delta}")
        if self.kind != "adversary" and self.v_max_mps <= 0.0:
            raise SchemaError("v_max_mps", "must be positive")
        if self.slot_duration_s <= 0.0:
            raise SchemaError("slot_duration_s", "must be positive")
        object.__setattr__(self, "start", (float(self.start[0]), float(self.start[1])))
        if self.kind == "d2d" and self.peer is None:
            raise SchemaError("peer", "commute scenarios need a peer schedule")
        if (
            self.kind in ("d2d", "ocean")
            and self.goal.speed_mps > 0.5 * self.v_max_mps
        ):
            warnings.warn(
                f"goal speed {self.goal.speed_mps} m/s exceeds half the agent "
                f"speed {self.v_max_mps} m/s; the goal may be unreachable",
                stacklevel=2,
            )

    @property
    def v_slot(self) -> float:
        """Maximum displacement per slot, in meters."""
        return self.v_max_mps * self.slot_duration_s

    @property
    def t_eta(self) -> int:
        """Slots for the straight-line run to the initial goal."""
        d = dist(self.start, self.goal.at(1, self.slot_duration_s))
        if d == 0.0:
            return 1
        # tiny backoff so an exact multiple is not pushed to the next slot
        return max(1, math.ceil(d / self.v_slot - 1e-9))

    @property
    def horizon(self) -> int:
        return self.t_eta + self.delta

    def derived_seed(self, offset: int) -> int:
        return self.seed + offset


@dataclass
class EpisodeReport:
    """Everything one episode produced, ready for trace emission."""

    kind: Kind
    trajectory: list[Point]
    records: list[StepRecord]
    goals: list[Point]
    lambdas: list[float]
    alphas: list[float]
    utilities: list[float]
    energy_steps: list[float]
    rate_series: list[float] | None
    regret_report: RegretReport | None
    wall_time_s: float
    config: ScenarioConfig
    problem: OfflineProblem | None = None

    @property
    def horizon(self) -> int:
        return len(self.trajectory)

    @property
    def avg_rate(self) -> float | None:
        if not self.rate_series:
            return None
        return sum(self.rate_series) / len(self.rate_series)

    @property
    def energy_total(self) -> float:
        return sum(self.energy_steps)

    @property
    def final_goal_distance(self) -> float:
        return dist(self.trajectory[-1], self.goals[-1])


def _auto_region(cfg: ScenarioConfig, anchors: Sequence[Point]) -> Box2D:
    """Feasible box: configured one, else a generous hull of the instance."""
    if cfg.feasible_box is not None:
        return cfg.feasible_box
    xs = [p[0] for p in anchors]
    ys = [p[1] for p in anchors]
    if cfg.ocean_field is not None:
        (blo, bhi) = cfg.ocean_field.bbox()
        xs += [blo[0], bhi[0]]
        ys += [blo[1], bhi[1]]
    span = max(xs) - min(xs) + max(ys) - min(ys)
    pad = max(10.0 * cfg.v_slot, 0.5 * span, 1.0)
    return Box2D((min(xs) - pad, min(ys) - pad), (max(xs) + pad, max(ys) + pad))


class _PeerNoise:
    """Zero-mean Gaussian jitter on the peer's reported position."""

    def __init__(self, std_m: float, seed: int):
        self.std = std_m
        self.seed = seed

    def observe(self, y: Point, t: int) -> Point:
        if self.std == 0.0:
            return y
        z0, z1 = normal_pair(self.seed, t)
        return (y[0] + self.std * z0, y[1] + self.std * z1)


class _Driver:
    """Set-up and per-slot bookkeeping shared by the commute and voyage drivers.

    A subclass sets ``region`` and implements ``plan``, which starts with
    :meth:`source_slot`.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.horizon = cfg.horizon
        self.start = cfg.start
        self.noise = replace(
            cfg.gradient_noise,
            seed=cfg.gradient_noise.seed or cfg.derived_seed(_GRAD_SEED_OFFSET),
        )
        tau = cfg.slot_duration_s
        self.goals = [cfg.goal.at(t, tau) for t in range(1, self.horizon + 1)]
        self.arrived = False
        self.lambdas: list[float] = []
        self.alphas: list[float] = []

    def source_slot(self, t: int, x_hat: Point, mode: Mode) -> int:
        """Latch arrival at slot ``t``'s goal; return the slot whose gradient drives the step."""
        if not self.arrived and dist(x_hat, self.goals[t - 1]) <= ARRIVAL_TOL_M:
            self.arrived = True
        return t + 1 if mode == "lookahead" else t


class _D2DDriver(_Driver):
    """Per-episode state machine for the commute scenario."""

    def __init__(self, cfg: ScenarioConfig):
        super().__init__(cfg)
        tau = cfg.slot_duration_s
        self.peers = [cfg.peer.at(t, tau) for t in range(1, self.horizon + 1)]
        self.region = _auto_region(cfg, [cfg.start, *self.goals, *self.peers])
        self.peer_noise = _PeerNoise(cfg.peer_noise_std_m, cfg.derived_seed(_PEER_SEED_OFFSET))
        self.leads_true: list[Point] = []

    def goal_weight(self, t: int) -> float:
        if self.arrived:
            return 1.0
        return obj.lambda_increasing(min(t, self.horizon), self.horizon)

    def lead(self, t: int, y: Point) -> Point:
        lam_goal = self.goal_weight(t)
        i = min(t, self.horizon) - 1
        return obj.leading_path(y, self.goals[i], 1.0 - lam_goal)

    def plan(self, t: int, x_hat: Point, x_prev: Point, mode: Mode) -> SlotPlan:
        cfg = self.cfg
        tg = self.source_slot(t, x_hat, mode)
        ig = min(tg, self.horizon) - 1
        y_true = self.peers[ig]
        y_obs = self.peer_noise.observe(y_true, tg)
        ell_true = self.lead(tg, y_true)
        ell_obs = self.lead(tg, y_obs)
        v = cfg.v_slot
        grad_true = obj.d2d_gradient(x_hat, ell_true, v, cfg.mu)
        grad_obs = obj.d2d_gradient(x_hat, ell_obs, v, cfg.mu)
        # bookkeeping stays on the current slot, whatever the gradient source
        self.lambdas.append(self.goal_weight(t))
        self.alphas.append(1.0)
        self.leads_true.append(self.lead(t, self.peers[t - 1]))

        def gamma(grad_tilde: Vector, gbar: float) -> float:
            return obj.d2d_step_size(
                gbar, v, 1.0, cfg.alpha_min, obj.D2D_SMOOTHNESS, cfg.margin
            )

        def slack(a: Point, b: Point) -> float:
            return dist(a, b) - v

        return SlotPlan(grad_true=grad_true, grad_observed=grad_obs, gamma=gamma, slack=slack)


class _OceanDriver(_Driver):
    """Per-episode state machine for the voyage scenario."""

    def __init__(self, cfg: ScenarioConfig):
        if cfg.ocean_field is None:
            raise SchemaError("ocean_field", "voyage scenarios need a current field")
        super().__init__(cfg)
        self.region = _auto_region(cfg, [cfg.start, *self.goals])
        self.truth = cfg.ocean_field
        pert = cfg.perturbation
        if pert is not None and pert.seed == 0:
            pert = FieldPerturbation(pert.sigma_fraction, cfg.derived_seed(_FIELD_SEED_OFFSET))
        self.measured = perturb_field(self.truth, pert) if pert else self.truth
        # historical maximum comes from the unperturbed record
        self.v_o_max_slot = max(self.truth.v_o_max * cfg.slot_duration_s, 1e-12)
        self.currents_true: list[Vector] = []  # m/slot, at visited waypoints

    def _current(self, fld: VelocityField, p: Point, t: int) -> Vector:
        tau = self.cfg.slot_duration_s
        return scale(sample_velocity(fld, p, (t - 1) * tau), tau)

    def weights(self, t: int, x_hat: Point, vo_meas: Vector) -> tuple[float, float]:
        """Goal weight and speed throttle for slot ``t`` at ``x_hat``."""
        cfg = self.cfg
        goal = self.goals[min(t, self.horizon) - 1]
        eta, theta = obj.current_strength_angle(goal, x_hat, vo_meas, self.v_o_max_slot)
        if self.arrived or cfg.lambda_strategy == "increasing":
            lam = 1.0 if self.arrived else obj.lambda_increasing(min(t, self.horizon), self.horizon)
        elif cfg.lambda_strategy == "direction_dependent":
            lam = obj.directional_weight(eta, theta)
        else:
            raise SchemaError("lambda_strategy", f"unknown strategy {cfg.lambda_strategy!r}")
        alpha = obj.alpha_schedule(cfg.beta, cfg.delta, self.horizon, eta, theta)
        return lam, alpha

    def plan(self, t: int, x_hat: Point, x_prev: Point, mode: Mode) -> SlotPlan:
        cfg = self.cfg
        tg = self.source_slot(t, x_hat, mode)
        ig = min(tg, self.horizon) - 1
        perturbed = self.measured is not self.truth
        vo_true_g = self._current(self.truth, x_hat, tg)
        vo_meas_g = self._current(self.measured, x_hat, tg) if perturbed else vo_true_g
        lam_g, alpha_g = self.weights(tg, x_hat, vo_meas_g)
        goal_g = self.goals[ig]
        grad_true = obj.ocean_gradient(x_hat, goal_g, vo_true_g, lam_g)
        grad_obs = (
            obj.ocean_gradient(x_hat, goal_g, vo_meas_g, lam_g) if perturbed else grad_true
        )
        # constraint and utility bookkeeping always live on the current slot
        if tg == t:
            vo_true_t, lam_t, alpha_t = vo_true_g, lam_g, alpha_g
        else:
            vo_true_t = self._current(self.truth, x_hat, t)
            vo_meas_t = self._current(self.measured, x_hat, t) if perturbed else vo_true_t
            lam_t, alpha_t = self.weights(t, x_hat, vo_meas_t)
        v = cfg.v_slot
        self.lambdas.append(lam_t)
        self.alphas.append(alpha_t)
        self.currents_true.append(vo_true_t)

        def gamma(grad_tilde: Vector, gbar: float) -> float:
            return obj.ocean_step_size(
                grad_tilde, vo_true_t, alpha_t, v, obj.OCEAN_SMOOTHNESS, cfg.margin
            )

        def slack(a: Point, b: Point) -> float:
            rel = (b[0] - a[0] - vo_true_t[0], b[1] - a[1] - vo_true_t[1])
            return math.hypot(rel[0], rel[1]) - alpha_t * v

        return SlotPlan(grad_true=grad_true, grad_observed=grad_obs, gamma=gamma, slack=slack)


def _voyage_utilities(driver: _OceanDriver, traj: Sequence[Point]) -> obj.VoyageUtilities:
    """Freeze the realized per-slot utilities of a finished voyage episode.

    Slot ``t``'s drift reference is the previous *online* waypoint and the
    current measured there; the first slot uses the start with no history.
    """
    lams, currents = driver.lambdas, driver.currents_true
    # slot T has no executed step; reuse the last weights/current for its value
    lams = lams + [lams[-1] if lams else 1.0]
    currents = currents + [currents[-1] if currents else (0.0, 0.0)]
    return obj.VoyageUtilities(lams, driver.goals, currents, [traj[0], *traj[:-1]])


def _regret_report(report: EpisodeReport, solution: OfflineSolution | None = None) -> RegretReport:
    """The episode's regret report against its offline benchmark.

    ``solution`` is the benchmark already solved (warm-started at the
    episode's trajectory); without it the benchmark is solved here.
    """
    cfg = report.config
    return build_regret_report(
        report.problem,
        report.trajectory,
        report.utilities,
        [r.eps_sq_bound for r in report.records],
        [r.eps_sq_realized for r in report.records],
        goal=report.goals[-1],
        fld=cfg.ocean_field if report.kind == "ocean" else None,
        c_d=cfg.drag_coefficient,
        slot_duration=cfg.slot_duration_s,
        solution=solution,
    )


def _finish_episode(report: EpisodeReport, benchmark: bool, t0: float) -> EpisodeReport:
    if benchmark:
        report.regret_report = _regret_report(report)
    report.wall_time_s = time.perf_counter() - t0
    return report


def run_d2d(config: ScenarioConfig, mode: Mode = "standard", benchmark: bool = True) -> EpisodeReport:
    """Run one commute episode; optionally solve the offline benchmark too."""
    if config.kind != "d2d":
        raise SchemaError("kind", f"run_d2d needs kind='d2d', got {config.kind!r}")
    t0 = time.perf_counter()
    driver = _D2DDriver(config)
    traj, records = run_episode(driver, mode)
    leads = driver.leads_true + [driver.lead(driver.horizon, driver.peers[-1])]
    utilities = obj.CommuteUtilities(leads, config.v_slot, config.mu, config.utility_kind)
    rate_series = [
        obj.rate(x, y, config.alpha_p, config.bandwidth_hz, config.noise_power)
        for x, y in zip(traj, driver.peers)
    ]
    energy_steps = [
        energy_cost([a, b], None, config.drag_coefficient, config.slot_duration_s)
        for a, b in zip(traj, traj[1:])
    ]
    util_series = [u(x) for u, x in zip(utilities.values, traj)]
    steps = driver.horizon - 1
    centers, radii = np.zeros((steps, 2)), np.full(steps, config.v_slot)
    report = EpisodeReport(
        kind="d2d",
        trajectory=traj,
        records=records,
        goals=driver.goals,
        lambdas=driver.lambdas,
        alphas=driver.alphas,
        utilities=util_series,
        energy_steps=energy_steps,
        rate_series=rate_series,
        regret_report=None,
        wall_time_s=0.0,
        config=config,
        problem=OfflineProblem(
            driver.start, utilities, centers, radii, driver.region, obj.D2D_SMOOTHNESS
        ),
    )
    return _finish_episode(report, benchmark, t0)


def run_ocean(config: ScenarioConfig, mode: Mode = "standard", benchmark: bool = True) -> EpisodeReport:
    """Run one voyage episode; optionally solve the offline benchmark too."""
    if config.kind != "ocean":
        raise SchemaError("kind", f"run_ocean needs kind='ocean', got {config.kind!r}")
    t0 = time.perf_counter()
    driver = _OceanDriver(config)
    traj, records = run_episode(driver, mode)
    utilities = _voyage_utilities(driver, traj)
    tau = config.slot_duration_s
    energy_steps = []
    for t, (a, b) in enumerate(zip(traj, traj[1:])):
        vo = driver.currents_true[t]  # m/slot at the visited waypoint
        rel_speed = math.hypot(b[0] - a[0] - vo[0], b[1] - a[1] - vo[1]) / tau
        energy_steps.append(config.drag_coefficient * rel_speed**3 * tau)
    util_series = [u(x) for u, x in zip(utilities.values, traj)]
    # one cap per executed step: the measured current, the throttled speed
    centers = np.array(driver.currents_true, dtype=float).reshape(-1, 2)
    radii = np.array(driver.alphas, dtype=float) * config.v_slot
    report = EpisodeReport(
        kind="ocean",
        trajectory=traj,
        records=records,
        goals=driver.goals,
        lambdas=driver.lambdas,
        alphas=driver.alphas,
        utilities=util_series,
        energy_steps=energy_steps,
        rate_series=None,
        regret_report=None,
        wall_time_s=0.0,
        config=config,
        problem=OfflineProblem(
            driver.start, utilities, centers, radii, driver.region, obj.OCEAN_SMOOTHNESS
        ),
    )
    return _finish_episode(report, benchmark, t0)


def run_scenario(config: ScenarioConfig, mode: Mode = "standard", benchmark: bool = True) -> EpisodeReport:
    """Dispatch on the configured scenario kind."""
    if config.kind == "d2d":
        return run_d2d(config, mode, benchmark)
    if config.kind == "ocean":
        return run_ocean(config, mode, benchmark)
    raise SchemaError("kind", f"no episode runner for kind {config.kind!r}")


def _sign(x: float) -> float:
    # sign(0) := 1 so the adversary always opposes the agent
    return 1.0 if x >= 0.0 else -1.0


PolicyFn = Callable[[int, list[float], list[float]], float]


def _ioga_policy(t: int, xs: list[float], ws: list[float]) -> float:
    # unit learning rate on the last revealed quadratic pull
    if not ws:
        return 0.0
    return xs[-1] + (ws[-1] - xs[-1])


def _zero_policy(t: int, xs: list[float], ws: list[float]) -> float:
    return 0.0


def make_adversary_policy(name: str, width: float, seed: int = 0) -> PolicyFn:
    if name == "ioga":
        return _ioga_policy
    if name == "zero":
        return _zero_policy
    if name == "random":
        rng = random.Random(slot_seed(seed, _POLICY_SEED_OFFSET))

        def policy(t, xs, ws):
            return rng.uniform(-width, width)

        return policy
    raise SchemaError("policy", f"unknown adversary policy {name!r}")


def run_adversary(T: int, width: float, policy: PolicyFn | str = "zero", seed: int = 0) -> float:
    """Play the worst-case scalar game and return the realized regret.

    The environment reveals ``w(t) = -width * sign(x(t))`` only after the
    agent commits to ``x(t)``; the clairvoyant benchmark sits on ``w(t)``
    itself, so the realized regret is ``0.5 * sum (x(t) - w(t))^2``.  Agent
    actions are clamped into ``[-width, width]``, which also keeps the
    pairwise coupling ``|x - x'|^2 <= 4 width^2`` feasible.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if width <= 0.0:
        raise ValueError("width must be positive")
    if isinstance(policy, str):
        policy = make_adversary_policy(policy, width, seed)
    xs: list[float] = []
    ws: list[float] = []
    total = 0.0
    for t in range(1, T + 1):
        x = min(max(policy(t, xs, ws), -width), width)
        w = -width * _sign(x)
        total += 0.5 * (x - w) ** 2
        xs.append(x)
        ws.append(w)
    return total


@dataclass
class SweepRow:
    param: str
    value: float
    report: EpisodeReport | None
    error: str | None = None


SweepParam = Literal["delta", "noise_sigma", "horizon"]


def _row_seed(base: int, param: str, value: float) -> int:
    # keyed on the value, not the position: dropping one value from a sweep
    # must not change any other row's output
    key = f"{param}={value:.12g}".encode()
    return base + zlib.crc32(key)


def apply_sweep_value(config: ScenarioConfig, param: SweepParam, value: float) -> ScenarioConfig:
    """Return a copy of the config with one swept parameter replaced."""
    seed = _row_seed(config.seed, param, value)
    if param == "delta":
        if value < 0 or value != int(value):
            raise SchemaError("values", f"delta must be a nonnegative integer, got {value}")
        return replace(config, delta=int(value), seed=seed)
    if param == "noise_sigma":
        if config.kind == "ocean":
            pert = FieldPerturbation(sigma_fraction=float(value), seed=0)
            return replace(config, perturbation=pert, seed=seed)
        return replace(config, peer_noise_std_m=float(value), seed=seed)
    if param == "horizon":
        base = replace(config, delta=0)
        t_eta = base.t_eta
        if value < t_eta or value != int(value):
            raise SchemaError(
                "values", f"horizon must be an integer >= straight-line slots {t_eta}"
            )
        return replace(config, delta=int(value) - t_eta, seed=seed)
    raise SchemaError("param", f"unknown sweep parameter {param!r}")


def sweep(
    config: ScenarioConfig,
    param: SweepParam,
    values: Sequence[float],
    mode: Mode = "standard",
    benchmark: bool = True,
) -> list[SweepRow]:
    """One episode per value; failures are carried per row, not raised.

    Every row's episode runs first.  With ``benchmark``, the rows' offline
    benchmarks are then solved in lockstep by one
    :func:`~trajsim.metrics.solve_offline_batch` call, which gives each row
    the same bits as a solo solve, and each row's regret report is built
    from its own solution.
    """
    if not values:
        raise SchemaError("values", "sweep needs at least one value")
    rows: list[SweepRow] = []
    for value in values:
        try:
            cfg = apply_sweep_value(config, param, value)
            report = run_scenario(cfg, mode, benchmark=False)
            rows.append(SweepRow(param=param, value=float(value), report=report))
        except Exception as exc:  # noqa: BLE001 - row isolation is the contract
            rows.append(SweepRow(param=param, value=float(value), report=None, error=str(exc)))
    if benchmark:
        _benchmark_rows([row for row in rows if row.report is not None])
    return rows


def _benchmark_rows(rows: list[SweepRow]) -> None:
    """Attach each row's regret report; a row whose benchmark fails gets its error."""
    reports = [row.report for row in rows]
    try:
        solutions = solve_offline_batch(
            [r.problem for r in reports], [r.trajectory for r in reports]
        )
    except Exception:  # noqa: BLE001 - each row retries alone below
        solutions = [None] * len(rows)
    for row, report, solution in zip(rows, reports, solutions):
        try:
            report.regret_report = _regret_report(report, solution)
        except Exception as exc:  # noqa: BLE001 - row isolation is the contract
            row.report, row.error = None, str(exc)
