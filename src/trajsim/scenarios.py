"""End-to-end experiment runners: commute, voyage, adversary game, sweeps.

A scenario resolves its configuration into per-slot schedules, computed
once per episode as arrays, drives the engine one slot at a time, and
assembles an :class:`EpisodeReport` holding the trajectory, step records,
per-slot series, and (optionally) the regret report against the offline
benchmark.
"""

from __future__ import annotations

import math
import random
import time
import warnings
import zlib
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from . import objectives as obj
from .engine import _MASK64, Mode, NoiseModel, StepColumns, normal_pairs, run_episode, slot_seed
from .errors import (
    COUNT,
    FINITE,
    INTEGER,
    NONNEGATIVE,
    POSITIVE,
    UNIT,
    SchemaError,
    as_real,
    check,
    is_count,
    one_of,
)
from .field import FieldPerturbation, VelocityField, perturb_field, sample_velocity
from .geom import Point, Vector, as_array, dist, left_sum, lerp, points
from .metrics import OfflineProblem, RegretReport, build_regret_report, solve_offline_batch
from .metrics import step_energies
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

    def track(self, horizon: int, slot_duration: float) -> list[Point]:
        """``[at(t, slot_duration) for t = 1 .. horizon]`` in one array pass, bit for bit.

        A static schedule repeats its one ``start`` object, as :meth:`at`
        returns it; the trace writer's goal-cell cache tests goals by identity.
        """
        total = dist(self.start, self.end)
        if self.speed_mps == 0.0 or total == 0.0:
            return [self.start] * horizon
        (s0, s1), (e0, e1) = self.start, self.end
        with np.errstate(all="ignore"):  # as quiet as float arithmetic
            run = self.speed_mps * slot_duration * np.arange(horizon, dtype=float)
            w = np.minimum(run, total) / total
            return points(s0 + w * (e0 - s0), s1 + w * (e1 - s1))


ADVERSARY_POLICIES = ("ioga", "zero", "random")

# The longest adversary game; the game loops once per slot in Python.
MAX_ADVERSARY_T = 10**7
# The widest adversary game: at the longest game its worst regret, 2 W^2 T,
# stays finite, and so does its bound W^2 T / 2.
MAX_ADVERSARY_W = 1e150

# The longest episode: the straight run to the goal plus delta, in slots.  An
# episode keeps per-slot lists; c13's voyage, the longest benchmark, has 10k.
MAX_HORIZON = 10**6

# The value rules of AdversaryParams, in the order checked.
_ADVERSARY_RULES = [
    ("horizon", (lambda x: is_count(x) and x >= 1, "must be an integer >= 1")),
    ("horizon", (lambda x: x <= MAX_ADVERSARY_T, f"must be <= {MAX_ADVERSARY_T:,}")),
    ("width", POSITIVE),
    ("width", (lambda x: as_real(x) <= MAX_ADVERSARY_W, f"must be <= {MAX_ADVERSARY_W:g}")),
    ("policy", one_of(*ADVERSARY_POLICIES)),
]

# The value rule of each of ScenarioConfig's plain fields, in the order checked.
_RULES = {
    "delta": COUNT,
    "seed": INTEGER,
    "peer_noise_std_m": NONNEGATIVE,
    "v_max_mps": POSITIVE,
    "slot_duration_s": POSITIVE,
    "mu": UNIT,
    "alpha_min": UNIT,
    # a step-size margin below 1 picks a rate inside the infeasible range
    "margin": (lambda x: 1.0 <= as_real(x) < math.inf, "must be >= 1"),
    "alpha_p": FINITE,
    "bandwidth_hz": POSITIVE,
    "noise_power": POSITIVE,
    "beta": NONNEGATIVE,
    "drag_coefficient": FINITE,
    "kind": one_of("d2d", "ocean", "adversary"),
    "utility_kind": one_of("squared", "huber"),
    "lambda_strategy": one_of("increasing", "direction_dependent"),
}


def _finite_point(p, name: str) -> Point:
    try:
        x, y = map(as_real, p)
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
        for name, rule in _ADVERSARY_RULES:
            check(rule, getattr(self, name), f"adversary.{name}")


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
        """Check every value rule, naming the field; the JSON parser keeps no copy of them."""
        for name, rule in _RULES.items():
            check(rule, getattr(self, name), name)
        object.__setattr__(self, "start", _finite_point(self.start, "start"))
        if self.feasible_box is not None and not self.feasible_box.contains(self.start):
            raise SchemaError("feasible_box", f"does not contain start {list(self.start)}")
        for name in ("goal", "peer"):
            spec = getattr(self, name)
            if spec is not None:
                _finite_point(spec.start, f"{name}.start")
                _finite_point(spec.end, f"{name}.end")
                check(NONNEGATIVE, spec.speed_mps, f"{name}.speed_mps")
                if not math.isfinite(dist(spec.start, spec.end)):
                    raise SchemaError(name, "the walk's span from start to end must be finite")
        if self.kind == "d2d" and self.peer is None:
            raise SchemaError("peer", "commute scenarios need a peer schedule")
        if self.kind == "ocean" and self.ocean_field is None:
            raise SchemaError("ocean_field", "voyage scenarios need a current field")
        if self.kind != "adversary":
            # t_eta counts the run only where it is finite and v_slot is not zero
            run = dist(self.start, self.goal.at(1, self.slot_duration_s))
            bounded = run <= MAX_HORIZON * self.v_slot and self.delta <= MAX_HORIZON
            if not (bounded and self.horizon <= MAX_HORIZON):
                raise SchemaError("horizon", "the horizon (slots to reach the goal at v_max_mps, "
                                  f"plus delta) must be at most {MAX_HORIZON:,}")
        if self.kind in ("d2d", "ocean") and self.goal.speed_mps > 0.5 * self.v_max_mps:
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
        """The seed of one purpose's stream: ``seed + offset``, reduced mod 2^64."""
        return (self.seed + offset) & _MASK64


@dataclass
class EpisodeReport:
    """Everything one episode produced, ready for trace emission."""

    kind: Kind
    trajectory: list[Point]
    records: StepColumns
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


def _auto_region(cfg: ScenarioConfig, *anchors: np.ndarray) -> Box2D:
    """Feasible box: configured one, else a generous hull of the ``(n, 2)`` anchor arrays."""
    if cfg.feasible_box is not None:
        return cfg.feasible_box
    hull = np.vstack(((cfg.start,), *anchors))
    if cfg.ocean_field is not None:
        hull = np.vstack((hull, cfg.ocean_field.bbox()))
    # the start is finite, and min and max skip a NaN anchor after it
    (x0, y0), (x1, y1) = np.nanmin(hull, axis=0).tolist(), np.nanmax(hull, axis=0).tolist()
    pad = max(10.0 * cfg.v_slot, 0.5 * (x1 - x0 + y1 - y0), 1.0)
    return Box2D((x0 - pad, y0 - pad), (x1 + pad, y1 + pad))


class _Driver:
    """Set-up and per-slot bookkeeping shared by the commute and voyage drivers.

    The set-up computes what the agent's position cannot change, once per
    episode as arrays: the goal schedule here, and the commute's peer, goal
    weights and leads in its subclass.  ``plan`` indexes these lists.
    A subclass sets ``region`` and implements the :class:`~trajsim.engine.EpisodeDriver`
    calls in one body each.  Its ``plan(t, ...)`` first latches ``arrival``
    once the waypoint is within :data:`ARRIVAL_TOL_M` of slot ``t``'s goal,
    and takes the step's gradient from slot ``t``, or from ``t + 1`` in
    lookahead mode (clamped at the horizon); its step sizes take the default
    ``L``, its family's ``smoothness``.  Once the episode is done,
    ``freeze(path)``, given the trajectory as a ``(T, 2)`` array, returns the
    offline benchmark (an :class:`OfflineProblem` over the frozen utility
    family, its step caps and the box), the per-step energies and the
    link-rate series (``None`` without a link).  By then ``lambdas`` and
    ``alphas`` hold one value per step.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.horizon = cfg.horizon
        self.start = cfg.start
        self.noise = replace(
            cfg.gradient_noise,
            seed=cfg.gradient_noise.seed or cfg.derived_seed(_GRAD_SEED_OFFSET),
        )
        self.goals = cfg.goal.track(self.horizon, cfg.slot_duration_s)
        self.goal_array = as_array(self.goals)
        # the slot whose waypoint latched arrival at its goal, if any
        self.arrival: int | None = None
        self.lambdas: list[float] = []
        self.alphas: list[float] = []
        self.v = cfg.v_slot
        self.margin = cfg.margin


class _D2DDriver(_Driver):
    """Per-episode state machine for the commute scenario.

    Before the arrival latch, slot ``t``'s goal weight is ``t / T`` and its
    leads are ``leading_path(peer, goal, 1 - t / T)`` of the true and of the
    observed (jittered) peer; the set-up computes all three for every slot.
    After the latch the agent holds the goal: the weight is 1 and ``plan``
    blends at 0 on the peer.  The path changes the weights and leads only
    through the latch slot, so ``freeze`` writes ``lambdas`` and the leads of
    the executed steps.

    The throttle ``alpha_t`` is always 1, so the step size depends on the
    slot only through the running gradient bound ``gbar``.  ``gamma`` keeps
    the last ``gbar`` and its rate, and calls
    :func:`~trajsim.objectives.d2d_step_size` only when ``gbar`` changes; a
    raise is never kept.  While the bound holds, every step's gamma is one
    float object, whose trace cell is formatted once.
    """

    def __init__(self, cfg: ScenarioConfig):
        super().__init__(cfg)
        T = self.horizon
        self.peers = cfg.peer.track(T, cfg.slot_duration_s)
        goals, peers = self.goal_array, as_array(self.peers)
        self.region = _auto_region(cfg, goals, peers)
        self.weights = obj.lambda_increasing(np.arange(1, T + 1), T)
        lam = 1.0 - self.weights  # the leads' blend weight on the peer
        self.peer_array, self.mu, std = peers, cfg.mu, cfg.peer_noise_std_m
        # the peer's reported position, jittered by std-scaled normals; None without jitter
        self.observed = None
        with np.errstate(all="ignore"):  # as quiet as float arithmetic
            leads = obj.leading_path(peers.T, goals.T, lam)
            self.lead_array = np.column_stack(leads)
            # without jitter the observed leads are the true ones, and plan takes one gradient
            self.leads = self.leads_obs = points(*leads)
            if std != 0.0:
                z0, z1 = normal_pairs(cfg.derived_seed(_PEER_SEED_OFFSET), 1, T)
                self.observed = np.stack([peers[:, 0] + std * z0, peers[:, 1] + std * z1], axis=1)
                self.leads_obs = points(*obj.leading_path(self.observed.T, goals.T, lam))
        # the last gbar and its rate; NaN differs from every gbar, so the first slot computes
        self._gbar = self._gamma = math.nan

    def plan(self, t: int, x_hat: Point, mode: Mode) -> tuple[Vector, Vector]:
        if self.arrival is None:
            goal = self.goals[t - 1]
            if math.hypot(x_hat[0] - goal[0], x_hat[1] - goal[1]) <= ARRIVAL_TOL_M:
                self.arrival = t
        s, T = (t + 1 if mode == "lookahead" else t), self.horizon
        i = (T if T < s else s) - 1
        if self.arrival is None:
            ell, ell_obs = self.leads[i], self.leads_obs[i]
        else:
            goal = self.goals[i]
            ell = ell_obs = obj.leading_path(self.peers[i], goal, 0.0)
            if self.observed is not None:
                ell_obs = obj.leading_path(self.observed[i].tolist(), goal, 0.0)
        grad_true = grad_obs = obj.d2d_gradient(x_hat, ell, self.v, self.mu)
        if ell_obs is not ell:
            grad_obs = obj.d2d_gradient(x_hat, ell_obs, self.v, self.mu)
        return grad_true, grad_obs

    def gamma(self, grad_tilde: Vector, gbar: float) -> float:
        if gbar != self._gbar:
            L, alpha_min = obj.D2D_SMOOTHNESS, self.cfg.alpha_min
            self._gamma = obj.d2d_step_size(gbar, self.v, 1.0, alpha_min, L, self.margin)
            self._gbar = gbar
        return self._gamma

    def slack(self, a: Point, b: Point) -> float:
        return math.hypot(a[0] - b[0], a[1] - b[1]) - self.v

    def freeze(self, path: np.ndarray):
        """The commute's offline problem, step energies and link rates.

        The energies are :func:`~trajsim.metrics.step_energies` in still
        water, and the rates :func:`~trajsim.objectives.rate` between each
        waypoint and the true peer of its slot.
        """
        cfg, steps = self.cfg, self.horizon - 1
        held = steps if self.arrival is None else self.arrival - 1  # steps before the latch
        self.lambdas = self.weights[:held].tolist() + [1.0] * (steps - held)
        self.alphas = [1.0] * steps
        # the last slot's lead blends at 0 on the peer whether or not the latch fired
        leads = self.lead_array
        if held < steps:
            leads = leads.copy()
            pairs = zip(self.peers[held:steps], self.goals[held:steps])
            leads[held:steps] = [obj.leading_path(y, d, 0.0) for y, d in pairs]
        family = obj.CommuteUtilities(leads, cfg.v_slot, cfg.mu, cfg.utility_kind)
        rates = obj.rate(path, self.peer_array, cfg.alpha_p, cfg.bandwidth_hz, cfg.noise_power)
        energy = step_energies(path, None, cfg.drag_coefficient, cfg.slot_duration_s)
        centers, radii = np.zeros((steps, 2)), np.full(steps, cfg.v_slot)
        problem = OfflineProblem(self.start, family, centers, radii, self.region)
        return problem, energy.tolist(), rates.tolist()


class _OceanDriver(_Driver):
    """Per-episode state machine for the voyage scenario."""

    def __init__(self, cfg: ScenarioConfig):
        super().__init__(cfg)
        self.region = _auto_region(cfg, self.goal_array)
        self.truth = cfg.ocean_field
        pert = cfg.perturbation
        if pert is not None and pert.seed == 0:
            pert = FieldPerturbation(pert.sigma_fraction, cfg.derived_seed(_FIELD_SEED_OFFSET))
        self.measured = perturb_field(self.truth, pert) if pert else self.truth
        # historical maximum comes from the unperturbed record
        self.v_o_max_slot = max(self.truth.v_o_max * cfg.slot_duration_s, 1e-12)
        self.current_u: list[float] = []  # m/s, the true current at visited waypoints
        self.current_v: list[float] = []
        self.tau = cfg.slot_duration_s
        self.increasing = cfg.lambda_strategy == "increasing"
        if self.increasing:  # the goal weights t / T of slots 1 .. T
            T = self.horizon
            self.weights = obj.lambda_increasing(np.arange(1, T + 1), T).tolist()

    def plan(self, t: int, x_hat: Point, mode: Mode) -> tuple[Vector, Vector]:
        """Slot ``t``'s gradients at ``x_hat``, or slot ``t + 1``'s in lookahead mode.

        Each slot ``s`` the loop visits samples its currents at ``x_hat`` and
        time ``(s - 1) * tau``, steps on them in m/slot, and takes its
        directional goal weight and throttle from
        :func:`~trajsim.objectives.voyage_weights`.
        Lookahead visits ``t + 1`` for the gradients, then ``t`` for the
        constraint and the utility bookkeeping.
        """
        goals, T, tau, truth, measured = self.goals, self.horizon, self.tau, self.truth, self.measured
        beta, delta = self.cfg.beta, self.cfg.delta
        if self.arrival is None:
            goal = goals[t - 1]
            if math.hypot(x_hat[0] - goal[0], x_hat[1] - goal[1]) <= ARRIVAL_TOL_M:
                self.arrival = t
        grads = None
        for s in (t + 1, t) if mode == "lookahead" else (t,):
            k, time_s = (T if T < s else s), (s - 1) * tau
            u, v = sample_velocity(truth, x_hat, time_s)
            vo_true = vo_meas = (u * tau, v * tau)
            if measured is not truth:
                um, vm = sample_velocity(measured, x_hat, time_s)
                vo_meas = (um * tau, vm * tau)
            goal = goals[k - 1]
            lam, alpha = obj.voyage_weights(goal, x_hat, vo_meas, self.v_o_max_slot, beta, delta, T)
            if self.arrival is not None:
                lam = 1.0
            elif self.increasing:
                lam = self.weights[k - 1]
            if grads is None:
                grad_true = grad_obs = obj.ocean_gradient(x_hat, goal, vo_true, lam)
                if vo_meas is not vo_true:
                    grad_obs = obj.ocean_gradient(x_hat, goal, vo_meas, lam)
                grads = grad_true, grad_obs
        self.lambdas.append(lam)
        self.alphas.append(alpha)
        self.current_u.append(u)
        self.current_v.append(v)
        # the step's true current and throttle, for gamma and slack
        self.vo, self.alpha = vo_true, alpha
        return grads

    def gamma(self, grad_tilde: Vector, gbar: float) -> float:
        L = obj.OCEAN_SMOOTHNESS
        return obj.ocean_step_size(grad_tilde, self.vo, self.alpha, self.v, L, self.margin)

    def slack(self, a: Point, b: Point) -> float:
        vo = self.vo
        return math.hypot(b[0] - a[0] - vo[0], b[1] - a[1] - vo[1]) - self.alpha * self.v

    def freeze(self, path: np.ndarray):
        """The voyage's offline problem and step energies; a voyage has no link rates."""
        # slot t's drift reference is the previous online waypoint and the current
        # measured there (m/s); slot T has no executed step and reuses the last weights
        lams, u, v = self.lambdas, self.current_u, self.current_v
        lams = lams + [lams[-1] if lams else 1.0]
        currents = np.column_stack((u + [u[-1] if u else 0.0], v + [v[-1] if v else 0.0]))
        prev = np.vstack((path[:1], path[:-1]))
        with np.errstate(all="ignore"):  # as quiet as float arithmetic
            family = obj.VoyageUtilities(lams, self.goal_array, currents * self.tau, prev)
        energy = step_energies(path, currents[:-1], self.cfg.drag_coefficient, self.tau)
        # one cap per executed step: the true current at the visited waypoint
        # (the family's currents but the last), the throttled speed
        radii = np.array(self.alphas, dtype=float) * self.v
        problem = OfflineProblem(self.start, family, family.current[:-1], radii, self.region)
        return problem, energy.tolist(), None


_DRIVERS = {"d2d": _D2DDriver, "ocean": _OceanDriver}


def run_scenario(config: ScenarioConfig, mode: Mode = "standard", benchmark: bool = True) -> EpisodeReport:
    """Run one commute or voyage episode; optionally solve the offline benchmark too."""
    driver_class = _DRIVERS.get(config.kind)
    if driver_class is None:
        raise SchemaError("kind", f"no episode runner for kind {config.kind!r}")
    t0 = time.perf_counter()
    driver = driver_class(config)
    traj, records = run_episode(driver, mode)
    path = as_array(traj)
    problem, energy_steps, rate_series = driver.freeze(path)
    report = EpisodeReport(
        kind=config.kind,
        trajectory=traj,
        records=records,
        goals=driver.goals,
        lambdas=driver.lambdas,
        alphas=driver.alphas,
        utilities=problem.utilities.evaluate(path),
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


def run_adversary(adv: AdversaryParams, seed: int = 0) -> float:
    """Play the worst-case scalar game and return the realized regret.

    The agent commits to ``x(t)`` in ``[-W, W]``; only then does the environment
    reveal ``w(t) = -W * sign(x(t))``, with ``sign(0) := 1``.  The clairvoyant
    benchmark sits on ``w(t)``, so the regret is ``0.5 * sum (x(t) - w(t))^2``.
    """
    check(INTEGER, seed, "seed")
    W, policy = adv.width, adv.policy
    rng = random.Random(slot_seed(seed, _POLICY_SEED_OFFSET))
    total, w = 0.0, 0.0
    for _ in range(adv.horizon):
        # ioga's unit step on the last revealed pull lands on w(t - 1); before any, on 0
        x = rng.uniform(-W, W) if policy == "random" else w if policy == "ioga" else 0.0
        w = -W if x >= 0.0 else W
        total += 0.5 * (x - w) ** 2
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
    if param == "delta":  # ScenarioConfig rejects a negative or fractional delta
        return replace(config, delta=int(value) if value == int(value) else value, seed=seed)
    if param == "noise_sigma":
        if config.kind == "ocean":
            pert = FieldPerturbation(sigma_fraction=float(value), seed=0)
            return replace(config, perturbation=pert, seed=seed)
        return replace(config, peer_noise_std_m=float(value), seed=seed)
    if param == "horizon":
        t_eta = config.t_eta  # the straight-line slots do not depend on delta
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
