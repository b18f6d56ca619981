"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and are not meant to be tuned.
"""

import math
import time

import numpy as np
import pytest

from trajsim import objectives as obj
from trajsim.engine import NoiseModel
from trajsim.field import AwayFromGoalSpec, GyreSpec, synth_field
from trajsim.geom import dist, norm
from trajsim.metrics import OracleGrid, dp_oracle, solve_offline
from trajsim.scenarios import (
    AdversaryParams,
    PathSpec,
    ScenarioConfig,
    run_adversary,
    run_scenario,
    sweep,
)
from trajsim.sets import Box2D
from trajsim.traces import emit_summary, emit_trace, read_summary

from gradient_reference import d2d_gradient_piecewise

# paper-reported commute geometry: both walks are ~894.43 m long and take
# 24 slots, so one slot lasts dist/24 seconds at 1 m/s
COMMUTE_DIST = math.hypot(400.0, 800.0)
COMMUTE_SLOT_S = 37.268


def commute_geometry(delta, peer_noise=1.0, seed=42, noise=NoiseModel()):
    return ScenarioConfig(
        kind="d2d",
        start=(0.0, 400.0),
        goal=PathSpec((400.0, 1200.0), (400.0, 1200.0)),
        peer=PathSpec((400.0, 0.0), (800.0, 800.0), speed_mps=1.0),
        peer_noise_std_m=peer_noise,
        delta=delta,
        v_max_mps=1.0,
        slot_duration_s=COMMUTE_SLOT_S,
        mu=1e-3,
        alpha_p=2.5,
        bandwidth_hz=10e6,
        noise_power=0.2,
        gradient_noise=noise,
        seed=seed,
    )


def report(criterion, detail):
    print(f"[PASS] {criterion}: {detail}")


def test_c01_adversary_lower_bound():
    t0 = time.perf_counter()
    values = {}
    for policy in ("ioga", "zero", "random"):
        values[policy] = run_adversary(AdversaryParams(100, 1.0, policy), seed=7)
        assert values[policy] >= 50.0 - 1e-9, (policy, values[policy])
    assert values["zero"] == 50.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        "criterion 1 (adversary lower bound)",
        f"regrets {dict((k, round(v, 3)) for k, v in values.items())} all >= 50; "
        f"zero policy exact; {elapsed:.3f}s",
    )


def test_c02_regret_sublinearity():
    t0 = time.perf_counter()
    horizons = [32, 64, 128, 256, 512, 1024]
    regrets = []
    for T in horizons:
        cfg = ScenarioConfig(
            kind="d2d",
            start=(0.0, 0.0),
            goal=PathSpec((2.0, 1.0), (2.0, 1.0)),
            peer=PathSpec((0.0, 0.0), (0.0, 0.0)),
            delta=T - 3,
            v_max_mps=1.0,
            utility_kind="squared",
            mu=1.0,
            alpha_min=0.01,
            gradient_noise=NoiseModel(kind="gaussian_decaying", eps0=0.5, decay_q=1.0, seed=9),
            seed=7,
        )
        assert cfg.horizon == T
        rr = run_scenario(cfg).regret_report
        assert rr.solver_converged
        assert rr.regret > 0
        regrets.append(rr.regret)
    slope = float(np.polyfit(np.log(horizons), np.log(regrets), 1)[0])
    elapsed = time.perf_counter() - t0
    assert slope <= 0.75, (slope, regrets)
    assert elapsed < 60.0
    report(
        "criterion 2 (regret sublinearity)",
        f"log-log slope {slope:.3f} <= 0.75 over T={horizons}; {elapsed:.1f}s",
    )


def test_c03_noise_zero_equivalence(tmp_path):
    quiet = commute_geometry(4, noise=NoiseModel(kind="none"))
    zeroed = commute_geometry(
        4, noise=NoiseModel(kind="gaussian_decaying", eps0=0.0, decay_q=1.0, seed=77)
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_trace(run_scenario(quiet, benchmark=False), a)
    emit_trace(run_scenario(zeroed, benchmark=False), b)
    assert a.read_bytes() == b.read_bytes()
    report("criterion 3 (noise-zero equivalence)", "traces byte-identical")


def test_c04_strategy_energy_ordering():
    t0 = time.perf_counter()
    margins = []
    for seed in (1, 2, 3, 4, 5):
        rng = np.random.default_rng(seed)
        goal = (60.0 + rng.uniform(-4, 4), 60.0 + rng.uniform(-4, 4))
        start = (15.0 + rng.uniform(-3, 3), 15.0 + rng.uniform(-3, 3))
        fld = synth_field(
            AwayFromGoalSpec(goal, 0.5), np.linspace(-300, 400, 71), np.linspace(-300, 400, 71)
        )
        probe = ScenarioConfig(
            kind="ocean", start=start, goal=PathSpec(goal, goal), delta=0,
            v_max_mps=1.0, beta=0.4, ocean_field=fld, seed=seed,
        )
        energies = {}
        for strategy in ("direction_dependent", "increasing"):
            cfg = ScenarioConfig(
                kind="ocean",
                start=start,
                goal=PathSpec(goal, goal),
                delta=11 * probe.t_eta,
                v_max_mps=1.0,
                lambda_strategy=strategy,
                beta=0.4,
                ocean_field=fld,
                seed=seed,
            )
            energies[strategy] = run_scenario(cfg, benchmark=False).energy_total
        assert energies["direction_dependent"] <= energies["increasing"], (seed, energies)
        margins.append(1.0 - energies["direction_dependent"] / energies["increasing"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        "criterion 4 (strategy energy ordering)",
        f"direction-dependent cheaper on 5/5 seeds, margins {[f'{m:.1%}' for m in margins]}; "
        f"{elapsed:.2f}s",
    )


def test_c05_rate_grows_with_delay(tmp_path):
    t0 = time.perf_counter()
    cfg = commute_geometry(0, peer_noise=1.0, seed=42)
    assert cfg.t_eta == 24
    rows = sweep(cfg, "delta", [0, 1, 2, 4, 6, 8], benchmark=False)
    path = tmp_path / "summary.csv"
    emit_summary(rows, path)
    rates = [row["avg_rate"] for row in read_summary(path)]
    assert all(r is not None for r in rates)
    for prev, curr in zip(rates, rates[1:]):
        assert curr >= prev * (1.0 - 0.01), rates
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        "criterion 5 (rate vs delay trend)",
        f"avg rate column nondecreasing within 1%: {[f'{r:.4g}' for r in rates]}; {elapsed:.2f}s",
    )


def test_c06_goal_distance_shrinks_with_delay():
    deltas = [0, 1, 2, 4, 6, 8, 10, 12, 16, 20, 24]
    finals = []
    for delta in deltas:
        cfg = commute_geometry(delta, peer_noise=0.0, seed=42)
        finals.append(run_scenario(cfg, benchmark=False).final_goal_distance)
    for prev, curr in zip(finals, finals[1:]):
        assert curr <= prev + 1e-9, finals
    v_slot = 1.0 * COMMUTE_SLOT_S
    assert finals[-1] <= v_slot
    report(
        "criterion 6 (goal distance vs delay)",
        f"final distance nonincreasing, {finals[-1]:.1f} m <= one slot ({v_slot:.1f} m)",
    )


def test_c07_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    box = Box2D((0.0, 0.0), (10.0, 10.0))
    from trajsim.metrics import OfflineProblem

    worst_gap = -np.inf
    for _ in range(10):
        T = int(rng.integers(2, 6))
        leads = [tuple(p) for p in rng.uniform(0, 10, (T, 2))]
        start = tuple(rng.uniform(0, 10, 2))
        radii = [float(rng.uniform(1.5, 3.0)) for _ in range(T - 1)]
        seq = obj.CommuteUtilities(leads, 1.0, 1e-3, "squared")
        problem = OfflineProblem(start, seq, np.zeros((T - 1, 2)), radii, box)
        sol = solve_offline(problem)
        coarse = dp_oracle(problem, OracleGrid((0.0, 0.0), (10.0, 10.0), 21, 21))
        fine = dp_oracle(problem, OracleGrid((0.0, 0.0), (10.0, 10.0), 41, 41))
        assert fine.utility >= coarse.utility - 1e-12
        assert sol.utility >= fine.utility - 1e-3
        worst_gap = max(worst_gap, fine.utility - sol.utility)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        "criterion 7 (oracle equivalence)",
        f"solver >= refined oracle - 1e-3 on 10 instances (worst oracle lead "
        f"{worst_gap:.2e}); refinement monotone; {elapsed:.1f}s",
    )


def test_c08_feasibility_suite():
    rng = np.random.default_rng(44)
    # commute family: policy step sizes keep every executed step in the cap
    for _ in range(1000):
        v = float(rng.uniform(0.2, 4.0))
        x = tuple(rng.uniform(-10, 10, 2))
        ell = tuple(rng.uniform(-10, 10, 2))
        mu = float(rng.uniform(0.01, 1.0))
        grad = obj.d2d_gradient(x, ell, v, mu)
        gbar = norm(grad) * float(rng.uniform(1.0, 3.0)) + 1e-9
        gamma = obj.d2d_step_size(gbar, v, 1.0, 0.01, L=obj.D2D_SMOOTHNESS, margin=1.01)
        step = (grad[0] / gamma, grad[1] / gamma)
        slack = norm(step) - 1.0 * v
        assert slack <= 1e-9
    # voyage family: root gives cap equality, clamping leaves strict slack
    exact_hits = 0
    for _ in range(1000):
        v = float(rng.uniform(0.5, 3.0))
        vo = tuple(rng.uniform(-0.4, 0.4, 2) * v)
        alpha = float(rng.uniform(norm(vo) / v + 0.05, 1.0))
        grad = tuple(rng.uniform(-8, 8, 2))
        if norm(grad) < 1e-12:
            continue
        gamma = obj.ocean_step_size(grad, vo, alpha, v, L=obj.OCEAN_SMOOTHNESS, margin=1.01)
        rel = dist((grad[0] / gamma, grad[1] / gamma), vo)
        slack = rel - alpha * v
        assert slack <= 1e-9
        if gamma > obj.OCEAN_SMOOTHNESS * 1.01:
            assert abs(slack) <= 1e-9  # at the root the cap binds exactly
            exact_hits += 1
        else:
            assert slack < 0.0  # clamped upward: strictly feasible
    assert exact_hits > 0
    report(
        "criterion 8 (feasibility suite)",
        f"1000 steps per family within tolerance; {exact_hits} root-exact voyage steps",
    )


def test_c09_gradient_correctness():
    rng = np.random.default_rng(13)

    def central(f, x, h=1e-5):
        return (
            (f((x[0] + h, x[1])) - f((x[0] - h, x[1]))) / (2 * h),
            (f((x[0], x[1] + h)) - f((x[0], x[1] - h))) / (2 * h),
        )

    checked = 0
    v = 1.0
    while checked < 1000:
        x = tuple(rng.uniform(-6, 6, 2))
        ell = tuple(rng.uniform(-6, 6, 2))
        mu = float(rng.uniform(0.05, 1.0))
        if abs(dist(x, ell) - v) < 1e-3:
            continue
        fd = central(lambda p: obj.d2d_utility(p, ell, v, mu, "huber"), x)
        g = obj.d2d_gradient(x, ell, v, mu)
        assert dist(g, fd) <= 1e-6 * max(1.0, norm(g))
        checked += 1
    for _ in range(1000):
        x = tuple(rng.uniform(-5, 5, 2))
        xp = tuple(rng.uniform(-5, 5, 2))
        d = tuple(rng.uniform(-5, 5, 2))
        vo = tuple(rng.uniform(-1, 1, 2))
        lam = float(rng.uniform(0, 1))
        fd = central(lambda p: obj.ocean_utility(p, xp, d, vo, lam), x)
        g = obj.ocean_gradient(x, d, vo, lam)
        assert dist(g, fd) <= 1e-6 * max(1.0, norm(g))
    for _ in range(10_000):
        x = tuple(rng.uniform(-10, 10, 2))
        ell = tuple(rng.uniform(-10, 10, 2))
        mu = float(rng.uniform(1e-6, 1.0))
        vv = float(rng.uniform(0.1, 5.0))
        assert dist(
            obj.d2d_gradient(x, ell, vv, mu), d2d_gradient_piecewise(x, ell, vv, mu)
        ) <= 1e-12
    report(
        "criterion 9 (gradient correctness)",
        "finite differences within 1e-6 (1000 pts/family); combined == piecewise at 1e-12",
    )


def test_c10_huber_c1():
    for mu in (0.1, 0.5, 0.9):
        v = 1.0
        near = obj.huber_value(v - 1e-12, v, mu)
        far = obj.huber_value(v + 1e-12, v, mu)
        assert abs(near - far) <= 1e-10
        # the gradient the agent steps on, with the lead v -+ 1e-12 away
        near_g = math.hypot(*obj.d2d_gradient((0.0, 0.0), (v - 1e-12, 0.0), v, mu))
        far_g = math.hypot(*obj.d2d_gradient((0.0, 0.0), (v + 1e-12, 0.0), v, mu))
        assert abs(near_g - far_g) <= 1e-10
        # branch formulas evaluated exactly at the crossover
        left = 0.5 * v * v
        right = v * (1 - mu) * v + 0.5 * mu * v * v - (1 - mu) * v * v / 2
        assert abs(left - right) <= 1e-10
    report("criterion 10 (robust penalty C1)", "value and slope continuous at the crossover")


def test_c11_schedule_cells():
    def weight(eta, theta):
        """The goal weight under a current of strength eta at angle theta to the heading."""
        v_o = (eta * math.cos(theta), eta * math.sin(theta))
        return obj.voyage_weights((10.0, 0.0), (0.0, 0.0), v_o, 1.0, 0.5, 0, 10)[0]

    assert weight(1.0, 0.0) == 0.0
    for theta in (0.0, 0.4, math.pi / 2, math.pi):
        assert abs(weight(1e-15, theta) - 1.0) <= 1e-12
    assert abs(weight(0.5, math.pi / 2) - 0.75) <= 1e-12
    report(
        "criterion 11 (goal-weight cells)",
        "strong/favorable -> 0, still water -> 1, moderate/perpendicular -> 0.75",
    )


def test_c12_energy_formula():
    from trajsim.field import UniformSpec
    from trajsim.metrics import energy_cost

    # relative speed 2 m/s for one 3 s slot
    assert energy_cost([(0.0, 0.0), (6.0, 0.0)], None, 1.0, slot_duration=3.0) == 24.0
    # drifting exactly with the current costs nothing
    fld = synth_field(UniformSpec(0.5, -0.25), (-10.0, 10.0), (-10.0, 10.0))
    drift = [(0.0, 0.0), (1.0, -0.5), (2.0, -1.0)]
    assert energy_cost(drift, fld, 1.0, slot_duration=2.0) == 0.0
    report("criterion 12 (energy formula)", "2 m/s for 3 s -> 24 J exact; drift-only -> 0 J exact")


def test_c13_episode_throughput():
    fld = synth_field(
        GyreSpec((5000.0, 5000.0), 0.4, 3000.0),
        np.linspace(0, 10000, 100),
        np.linspace(0, 10000, 100),
        np.linspace(0, 10000, 10),
    )
    reach = 9000.0 / math.sqrt(2.0)
    cfg = ScenarioConfig(
        kind="ocean",
        start=(500.0, 500.0),
        goal=PathSpec((500.0 + reach, 500.0 + reach), (500.0 + reach, 500.0 + reach)),
        delta=1000,
        v_max_mps=1.0,
        lambda_strategy="direction_dependent",
        beta=0.3,
        ocean_field=fld,
        seed=2,
        gradient_noise=NoiseModel(kind="gaussian_decaying", eps0=0.05, decay_q=1.0, seed=3),
    )
    assert cfg.horizon == 10_000
    t0 = time.perf_counter()
    rep = run_scenario(cfg, benchmark=False)
    elapsed = time.perf_counter() - t0
    assert rep.horizon == 10_000
    assert elapsed < 1.0
    report(
        "criterion 13 (episode throughput)",
        f"10k-slot voyage on a 100x100x10 field in {elapsed:.3f}s (< 1 s)",
    )
