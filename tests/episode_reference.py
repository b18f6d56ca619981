"""The per-slot commute episode that the tests check the precomputed one against.

It is the commute driver and the engine loop as they ran one slot at a
time: every slot draws its gradient noise and its peer jitter with the
scalar draws of ``slot_reference``, blends its leads with ``leading_path``,
and the set-up samples the goal and peer schedules with its scalar walk.
``freeze`` returns the whole horizon's leads, the step energies from the
per-slot ``energy_cost`` loop (``report_reference``) and the link rates
from the scalar ``rate`` kept here, one pair at a time.

The projected step and the per-slot objectives that clamp with comparisons
in the library (``ioga_step``, ``d2d_step_size``, the strength and angle
of ``voyage_weights`` and ``ocean_step_size``) are kept here as they were
written with the builtin two-argument ``min`` and ``max``, and the named
tuples built through their Python-level ``__new__``.  ``voyage_weights``
is the voyage driver's weight and throttle as it ran them on
``current_strength_angle``.
"""

import math
from dataclasses import replace

from report_reference import energy_cost
from slot_reference import noise_draw, noise_eps, normal_pair, walk_at

from trajsim import objectives as obj
from trajsim.engine import SLACK_TOL, EngineState, StepRecord
from trajsim.errors import EmptyStepInterval, InfeasibleStepSize, RootExistence
from trajsim.geom import dist, dot, norm, norm_sq, sub
from trajsim.scenarios import _GRAD_SEED_OFFSET, _PEER_SEED_OFFSET, ARRIVAL_TOL_M
from trajsim.sets import Box2D


def ioga_step(state, grad_tilde, gamma, region):
    """One projected ascent step ``x <- P(x + grad/gamma)``; NaN ``gamma`` is rejected."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    (x0, x1), (g0, g1), s = state.x_hat, grad_tilde, 1.0 / gamma
    (lo0, lo1), (hi0, hi1) = region.lo, region.hi
    return EngineState(
        state.t + 1,
        (min(max(x0 + g0 * s, lo0), hi0), min(max(x1 + g1 * s, lo1), hi1)),
        state.x_hat,
    )


def d2d_step_size(gbar, v_max, alpha_t, alpha_min, L=obj.D2D_SMOOTHNESS, margin=1.01):
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


def current_strength_angle(d, x_hat, v_o, v_o_max):
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


def voyage_weights(goal, x_hat, v_o, v_o_max, beta, delta, T):
    eta, theta = current_strength_angle(goal, x_hat, v_o, v_o_max)
    half = math.cos(theta / 2.0)
    return 1.0 - eta * half * half, math.exp(-beta * (delta / T + eta * half))


def rate(x, y, alpha_p, bandwidth, sigma2):
    """Link rate between two positions, in bits/s."""
    if bandwidth <= 0.0 or sigma2 <= 0.0:
        raise ValueError("bandwidth and noise power must be positive")
    d = max(dist(x, y), obj.RATE_MIN_DISTANCE_M)
    rss = d ** (-alpha_p)
    return bandwidth * math.log2(1.0 + rss / (rss + sigma2))


def ocean_step_size(grad_tilde, v_o, alpha_t, v_max, L=obj.OCEAN_SMOOTHNESS, margin=1.01):
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
    root = (b - math.sqrt(disc)) / (2.0 * a)
    return max(root, margin * L)


# the floats where a comparison and the builtin min/max could part
EDGE_FLOATS = (math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 5e-324)


def outcome(fn, *args):
    """``repr`` of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the raise is part of the outcome
        return type(exc), str(exc)


def auto_region(cfg, anchors):
    """The feasible box as a hull over a point list (no current field)."""
    if cfg.feasible_box is not None:
        return cfg.feasible_box
    xs = [p[0] for p in anchors]
    ys = [p[1] for p in anchors]
    span = max(xs) - min(xs) + max(ys) - min(ys)
    pad = max(10.0 * cfg.v_slot, 0.5 * span, 1.0)
    return Box2D((min(xs) - pad, min(ys) - pad), (max(xs) + pad, max(ys) + pad))


class ReferenceCommute:
    """The commute driver, one slot at a time."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.horizon = cfg.horizon
        self.start = cfg.start
        self.noise = replace(
            cfg.gradient_noise,
            seed=cfg.gradient_noise.seed or cfg.derived_seed(_GRAD_SEED_OFFSET),
        )
        tau = cfg.slot_duration_s
        self.goals = [walk_at(cfg.goal, t, tau) for t in range(1, self.horizon + 1)]
        self.peers = [walk_at(cfg.peer, t, tau) for t in range(1, self.horizon + 1)]
        self.region = auto_region(cfg, [cfg.start, *self.goals, *self.peers])
        self.arrived = False
        self.lambdas, self.alphas, self.leads_true = [], [], []
        self.v = cfg.v_slot
        self.center, self.radius = (0.0, 0.0), self.v
        self.peer_std = cfg.peer_noise_std_m
        self.peer_seed = cfg.derived_seed(_PEER_SEED_OFFSET)

    def source_slot(self, t, x_hat, mode):
        if not self.arrived and dist(x_hat, self.goals[t - 1]) <= ARRIVAL_TOL_M:
            self.arrived = True
        return t + 1 if mode == "lookahead" else t

    def goal_weight(self, t):
        if self.arrived:
            return 1.0
        return obj.lambda_increasing(min(t, self.horizon), self.horizon)

    def plan(self, t, x_hat, mode):
        tg = self.source_slot(t, x_hat, mode)
        ig = min(tg, self.horizon) - 1
        y_true, goal, v, mu = self.peers[ig], self.goals[ig], self.v, self.cfg.mu
        lam = self.goal_weight(tg)
        ell = obj.leading_path(y_true, goal, 1.0 - lam)
        grad_true = grad_obs = obj.d2d_gradient(x_hat, ell, v, mu)
        if self.peer_std != 0.0:
            z0, z1 = normal_pair(self.peer_seed, tg)
            y_obs = (y_true[0] + self.peer_std * z0, y_true[1] + self.peer_std * z1)
            grad_obs = obj.d2d_gradient(x_hat, obj.leading_path(y_obs, goal, 1.0 - lam), v, mu)
        if tg != t:
            lam = self.goal_weight(t)
            ell = obj.leading_path(self.peers[t - 1], self.goals[t - 1], 1.0 - lam)
        self.lambdas.append(lam)
        self.alphas.append(1.0)
        self.leads_true.append(ell)
        return grad_true, grad_obs

    def gamma(self, grad_tilde, gbar):
        return obj.d2d_step_size(gbar, self.v, 1.0, self.cfg.alpha_min, margin=self.cfg.margin)

    def freeze(self, traj):
        """The horizon's leads, the step energies and the link rates."""
        cfg = self.cfg
        lam = self.goal_weight(self.horizon)
        leads = self.leads_true + [obj.leading_path(self.peers[-1], self.goals[-1], 1.0 - lam)]
        rate_series = [
            rate(x, y, cfg.alpha_p, cfg.bandwidth_hz, cfg.noise_power)
            for x, y in zip(traj, self.peers)
        ]
        energy_steps = [
            energy_cost([a, b], None, cfg.drag_coefficient, cfg.slot_duration_s)
            for a, b in zip(traj, traj[1:])
        ]
        return leads, energy_steps, rate_series


def run_episode_reference(driver, mode="standard"):
    """The engine loop with one scalar noise draw per slot."""
    start, region, noise = driver.start, driver.region, driver.noise
    state, gbar = EngineState(1, start, start), 0.0
    waypoints, records = [start], []
    for t in range(1, driver.horizon):
        x_hat = state.x_hat
        grad_true, grad_obs = driver.plan(t, x_hat, mode)
        eps_t = noise_eps(noise, t)
        n = noise_draw(noise, t)
        grad_tilde = (grad_obs[0] + n[0], grad_obs[1] + n[1])
        gbar = max(gbar, math.hypot(grad_tilde[0], grad_tilde[1]))
        try:
            gamma = driver.gamma(grad_tilde, gbar)
            state = ioga_step(state, grad_tilde, gamma, region)
        except (EmptyStepInterval, RootExistence, ValueError) as exc:
            interval = (exc.lower, exc.upper) if isinstance(exc, EmptyStepInterval) else None
            raise InfeasibleStepSize(t, str(exc), gbar, interval) from exc
        x_next = state.x_hat
        slack = dist(sub(x_next, x_hat), driver.center) - driver.radius
        if not slack <= SLACK_TOL:
            detail = f"executed step violates its constraint by {slack:.3e}"
            raise InfeasibleStepSize(t, detail, gbar)
        e0, e1 = grad_tilde[0] - grad_true[0], grad_tilde[1] - grad_true[1]
        records.append(
            StepRecord(t, x_hat, x_next, gamma, grad_tilde, e0 * e0 + e1 * e1, eps_t * eps_t, slack)
        )
        waypoints.append(x_next)
    return waypoints, records
