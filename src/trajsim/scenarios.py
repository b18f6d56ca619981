"""End-to-end experiment runners: commute, voyage, adversary game, sweeps.

A scenario resolves its configuration into per-slot schedules, drives the
engine one slot at a time, and assembles an :class:`EpisodeReport` holding
the trajectory, step records, per-slot series, and (optionally) the regret
report against the offline benchmark.
"""

from __future__ import annotations

import math
import numbers
import random
import time
import warnings
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Literal, Sequence

import numpy as np

from . import objectives as obj
from .engine import Mode, NoiseModel, StepRecord, normal_pair, run_episode, slot_seed
from .errors import SchemaError
from .field import FieldPerturbation, VelocityField, perturb_field, sample_velocity
from .geom import Point, Vector, dist, left_sum, lerp
from .metrics import (
    OfflineProblem,
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


ADVERSARY_POLICIES = ("ioga", "zero", "random")


def _real(x) -> float:
    """``x`` as a float; NaN for a bool or anything that is not a real number."""
    return float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan


def _count(x) -> bool:
    """Whether ``x`` is an integer (a bool is not)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


# The config parser's rules for ScenarioConfig's numeric fields: a predicate on
# the value as a float (NaN for a non-number) and the message when it fails.
_POSITIVE = (lambda x: 0.0 < x < math.inf, "must be a finite number > 0")
_NONNEGATIVE = (lambda x: 0.0 <= x < math.inf, "must be a finite number >= 0")
_FINITE = (math.isfinite, "must be a finite number")
_UNIT = (lambda x: 0.0 < x <= 1.0, "must be in (0, 1]")
_NUMBER_RULES = {
    "peer_noise_std_m": _NONNEGATIVE,
    "v_max_mps": _POSITIVE,
    "slot_duration_s": _POSITIVE,
    "mu": _UNIT,
    "alpha_min": _UNIT,
    # a step-size margin below 1 picks a rate inside the infeasible range
    "margin": (lambda x: 1.0 <= x < math.inf, "must be a finite number >= 1"),
    "alpha_p": _FINITE,
    "bandwidth_hz": _POSITIVE,
    "noise_power": _POSITIVE,
    "beta": _NONNEGATIVE,
    "drag_coefficient": _FINITE,
}
_CHOICES = {
    "kind": ("d2d", "ocean", "adversary"),
    "utility_kind": ("squared", "huber"),
    "lambda_strategy": ("increasing", "direction_dependent"),
}


def _check(rule, value, name: str) -> None:
    ok, message = rule
    if not ok(_real(value)):
        raise SchemaError(name, f"{message}, got {value!r}")


def _finite_point(p, name: str) -> Point:
    try:
        x, y = map(_real, p)
    except (TypeError, ValueError):
        x = y = math.nan
    if not (math.isfinite(x) and math.isfinite(y)):
        raise SchemaError(name, f"must be two finite numbers, got {p!r}")
    return (x, y)


@dataclass(frozen=True)
class AdversaryParams:
    horizon: int = 100
    width: float = 1.0
    policy: str = "zero"

    def __post_init__(self):
        if not (_count(self.horizon) and self.horizon >= 1):
            raise SchemaError("adversary.horizon", f"must be an integer >= 1, got {self.horizon!r}")
        _check(_POSITIVE, self.width, "adversary.width")
        if self.policy not in ADVERSARY_POLICIES:
            raise SchemaError(
                "adversary.policy",
                f"must be one of {', '.join(ADVERSARY_POLICIES)}, got {self.policy!r}",
            )


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
        """Apply the config parser's rules, so a library-built config fails as early."""
        if not (_count(self.delta) and self.delta >= 0):
            raise SchemaError("delta", f"must be a nonnegative integer, got {self.delta!r}")
        for name, rule in _NUMBER_RULES.items():
            _check(rule, getattr(self, name), name)
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise SchemaError(name, f"must be one of {', '.join(choices)}, got {value!r}")
        object.__setattr__(self, "start", _finite_point(self.start, "start"))
        for name in ("goal", "peer"):
            spec = getattr(self, name)
            if spec is not None:
                _finite_point(spec.start, f"{name}.start")
                _finite_point(spec.end, f"{name}.end")
                _check(_NONNEGATIVE, spec.speed_mps, f"{name}.speed_mps")
        if self.kind == "d2d" and self.peer is None:
            raise SchemaError("peer", "commute scenarios need a peer schedule")
        if self.kind == "ocean" and self.ocean_field is None:
            raise SchemaError("ocean_field", "voyage scenarios need a current field")
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
        return left_sum(self.rate_series) / len(self.rate_series)

    @property
    def energy_total(self) -> float:
        return left_sum(self.energy_steps, 0.0)

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


class _Driver:
    """Set-up and per-slot bookkeeping shared by the commute and voyage drivers.

    A subclass sets ``region`` and implements the :class:`~trajsim.engine.EpisodeDriver`
    calls; its ``plan`` starts with :meth:`source_slot`, and its step sizes take
    the default ``L``, its family's ``smoothness``.  Once the episode is done,
    ``freeze(traj)`` returns the offline benchmark (an :class:`OfflineProblem`
    over the frozen utility family, its step caps and the box), the per-step
    energies and the link-rate series (``None`` without a link).
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
        self.v = cfg.v_slot
        self.margin = cfg.margin

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
        # std of the zero-mean Gaussian jitter on the peer's reported position
        self.peer_std = cfg.peer_noise_std_m
        self.peer_seed = cfg.derived_seed(_PEER_SEED_OFFSET)
        self.leads_true: list[Point] = []

    def goal_weight(self, t: int) -> float:
        if self.arrived:
            return 1.0
        return obj.lambda_increasing(min(t, self.horizon), self.horizon)

    def plan(self, t: int, x_hat: Point, mode: Mode) -> tuple[Vector, Vector]:
        tg = self.source_slot(t, x_hat, mode)
        ig = min(tg, self.horizon) - 1
        y_true, goal, v, mu = self.peers[ig], self.goals[ig], self.v, self.cfg.mu
        lam = self.goal_weight(tg)
        ell = obj.leading_path(y_true, goal, 1.0 - lam)
        grad_true = grad_obs = obj.d2d_gradient(x_hat, ell, v, mu)
        if self.peer_std != 0.0:  # the agent sees the peer's jittered position
            z0, z1 = normal_pair(self.peer_seed, tg)
            y_obs = (y_true[0] + self.peer_std * z0, y_true[1] + self.peer_std * z1)
            grad_obs = obj.d2d_gradient(x_hat, obj.leading_path(y_obs, goal, 1.0 - lam), v, mu)
        if tg != t:  # bookkeeping stays on the current slot, whatever the gradient source
            lam = self.goal_weight(t)
            ell = obj.leading_path(self.peers[t - 1], self.goals[t - 1], 1.0 - lam)
        self.lambdas.append(lam)
        self.alphas.append(1.0)
        self.leads_true.append(ell)
        return grad_true, grad_obs

    def gamma(self, grad_tilde: Vector, gbar: float) -> float:
        return obj.d2d_step_size(gbar, self.v, 1.0, self.cfg.alpha_min, margin=self.margin)

    def slack(self, a: Point, b: Point) -> float:
        return dist(a, b) - self.v

    def freeze(self, traj: list[Point]):
        """The commute's offline problem, step energies and link rates."""
        cfg = self.cfg
        lam = self.goal_weight(self.horizon)
        leads = self.leads_true + [obj.leading_path(self.peers[-1], self.goals[-1], 1.0 - lam)]
        family = obj.CommuteUtilities(leads, cfg.v_slot, cfg.mu, cfg.utility_kind)
        rate_series = [
            obj.rate(x, y, cfg.alpha_p, cfg.bandwidth_hz, cfg.noise_power)
            for x, y in zip(traj, self.peers)
        ]
        energy_steps = [
            energy_cost([a, b], None, cfg.drag_coefficient, cfg.slot_duration_s)
            for a, b in zip(traj, traj[1:])
        ]
        centers, radii = np.zeros((self.horizon - 1, 2)), np.full(self.horizon - 1, cfg.v_slot)
        problem = OfflineProblem(self.start, family, centers, radii, self.region)
        return problem, energy_steps, rate_series


class _OceanDriver(_Driver):
    """Per-episode state machine for the voyage scenario."""

    def __init__(self, cfg: ScenarioConfig):
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
        self.tau = cfg.slot_duration_s
        self.increasing = cfg.lambda_strategy == "increasing"
        # alpha_schedule's -beta and delta / T
        self.neg_beta = -cfg.beta
        self.delta_per_slot = cfg.delta / self.horizon

    def _currents(self, p: Point, t: int) -> tuple[Vector, Vector]:
        """True and measured current at ``p`` in slot ``t``, in m/slot."""
        tau = self.tau
        s = (t - 1) * tau
        u, v = sample_velocity(self.truth, p, s)
        true = (u * tau, v * tau)
        if self.measured is self.truth:
            return true, true
        u, v = sample_velocity(self.measured, p, s)
        return true, (u * tau, v * tau)

    def weights(self, t: int, x_hat: Point, vo_meas: Vector) -> tuple[float, float]:
        """Goal weight and speed throttle for slot ``t`` at ``x_hat``; ``cos(theta / 2)`` once."""
        goal = self.goals[min(t, self.horizon) - 1]
        eta, theta = obj.current_strength_angle(goal, x_hat, vo_meas, self.v_o_max_slot)
        half = math.cos(theta / 2.0)
        if self.arrived:
            lam = 1.0
        elif self.increasing:
            lam = min(t, self.horizon) / self.horizon
        else:
            lam = 1.0 - eta * half * half
        return lam, math.exp(self.neg_beta * (self.delta_per_slot + eta * half))

    def plan(self, t: int, x_hat: Point, mode: Mode) -> tuple[Vector, Vector]:
        tg = self.source_slot(t, x_hat, mode)
        vo_true, vo_meas = self._currents(x_hat, tg)
        lam, alpha = self.weights(tg, x_hat, vo_meas)
        goal = self.goals[min(tg, self.horizon) - 1]
        grad_true = grad_obs = obj.ocean_gradient(x_hat, goal, vo_true, lam)
        if vo_meas is not vo_true:
            grad_obs = obj.ocean_gradient(x_hat, goal, vo_meas, lam)
        if tg != t:  # constraint and utility bookkeeping always live on the current slot
            vo_true, vo_meas = self._currents(x_hat, t)
            lam, alpha = self.weights(t, x_hat, vo_meas)
        self.lambdas.append(lam)
        self.alphas.append(alpha)
        self.currents_true.append(vo_true)
        # the step's true current and throttle, for gamma and slack
        self.vo, self.alpha = vo_true, alpha
        return grad_true, grad_obs

    def gamma(self, grad_tilde: Vector, gbar: float) -> float:
        return obj.ocean_step_size(grad_tilde, self.vo, self.alpha, self.v, margin=self.margin)

    def slack(self, a: Point, b: Point) -> float:
        vo = self.vo
        return math.hypot(b[0] - a[0] - vo[0], b[1] - a[1] - vo[1]) - self.alpha * self.v

    def freeze(self, traj: list[Point]):
        """The voyage's offline problem and step energies; a voyage has no link rates."""
        # slot t's drift reference is the previous online waypoint and the current
        # measured there; slot T has no executed step and reuses the last weights
        lams, currents = self.lambdas, self.currents_true
        lams = lams + [lams[-1] if lams else 1.0]
        currents = currents + [currents[-1] if currents else (0.0, 0.0)]
        family = obj.VoyageUtilities(lams, self.goals, currents, [traj[0], *traj[:-1]])
        tau = self.tau
        energy_steps = []
        for t, (a, b) in enumerate(zip(traj, traj[1:])):
            vo = self.currents_true[t]  # m/slot at the visited waypoint
            rel_speed = math.hypot(b[0] - a[0] - vo[0], b[1] - a[1] - vo[1]) / tau
            energy_steps.append(self.cfg.drag_coefficient * rel_speed**3 * tau)
        # one cap per executed step: the true current at the visited waypoint
        # (the family's currents but the last), the throttled speed
        radii = np.array(self.alphas, dtype=float) * self.v
        problem = OfflineProblem(self.start, family, family.current[:-1], radii, self.region)
        return problem, energy_steps, None


_DRIVERS = {"d2d": _D2DDriver, "ocean": _OceanDriver}


def run_scenario(config: ScenarioConfig, mode: Mode = "standard", benchmark: bool = True) -> EpisodeReport:
    """Run one commute or voyage episode; optionally solve the offline benchmark too."""
    driver_class = _DRIVERS.get(config.kind)
    if driver_class is None:
        raise SchemaError("kind", f"no episode runner for kind {config.kind!r}")
    t0 = time.perf_counter()
    driver = driver_class(config)
    traj, records = run_episode(driver, mode)
    problem, energy_steps, rate_series = driver.freeze(traj)
    report = EpisodeReport(
        kind=config.kind,
        trajectory=traj,
        records=records,
        goals=driver.goals,
        lambdas=driver.lambdas,
        alphas=driver.alphas,
        utilities=problem.utilities.evaluate(traj),
        energy_steps=energy_steps,
        rate_series=rate_series,
        regret_report=None,
        wall_time_s=0.0,
        config=config,
        problem=problem,
    )
    if benchmark:
        report.regret_report = build_regret_report(report)
    report.wall_time_s = time.perf_counter() - t0
    return report


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
            report.regret_report = build_regret_report(report, solution)
        except Exception as exc:  # noqa: BLE001 - row isolation is the contract
            row.report, row.error = None, str(exc)
