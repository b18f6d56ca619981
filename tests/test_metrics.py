import warnings

import numpy as np
import pytest

from trajsim.errors import GridTooCoarse, HorizonMismatch
from trajsim.field import UniformSpec, synth_field
from trajsim.geom import dist, norm_sq, sub
from trajsim.metrics import (
    OfflineProblem,
    OracleGrid,
    UtilitySequence,
    cumulative_error,
    dp_oracle,
    energy_conserved,
    energy_cost,
    gradient_variation,
    regret,
    solve_offline,
    squared_path_length,
    straight_line_trajectory,
)
from trajsim.scenarios import d2d_utility_sequence
from trajsim.sets import Box2D, StepCap

BIG_BOX = Box2D((-1e6, -1e6), (1e6, 1e6))
TEN_BOX = Box2D((0.0, 0.0), (10.0, 10.0))


def quadratic_sequence(leads, box=BIG_BOX):
    """Utilities -0.5|x - lead|^2 per slot, with exact variation data."""
    values = tuple((lambda x, e=e: -0.5 * norm_sq(sub(x, e))) for e in leads)
    grads = tuple((lambda x, e=e: sub(e, x)) for e in leads)
    diffs = tuple((0.0, sub(b, a)) for a, b in zip(leads, leads[1:]))
    return UtilitySequence(values=values, gradients=grads, affine_diffs=diffs)


def quadratic_problem(start, leads, caps_r, region=BIG_BOX, centers=None):
    T = len(leads)
    centers = centers or [(0.0, 0.0)] * (T - 1)
    caps = tuple(StepCap(i, centers[i], caps_r[i]) for i in range(T - 1))
    return OfflineProblem(
        start=start,
        utilities=quadratic_sequence(leads),
        caps=caps,
        region=region,
        smoothness=1.0,
    )


class TestSolveOffline:
    def test_unconstrained_optimum_reached(self):
        # generous cap: the second waypoint lands exactly on its target
        problem = quadratic_problem((0.0, 0.0), [(0.0, 0.0), (2.0, 1.0)], [5.0])
        sol = solve_offline(problem)
        assert sol.converged
        assert dist(sol.points[1], (2.0, 1.0)) <= 1e-6
        assert sol.points[0] == (0.0, 0.0)

    def test_capped_optimum_on_reachable_ball(self):
        # target at distance 3 with cap 1: land on the unit ball boundary
        d = (3.0, 0.0)
        problem = quadratic_problem((0.0, 0.0), [(0.0, 0.0), d], [1.0])
        sol = solve_offline(problem)
        assert dist(sol.points[1], (1.0, 0.0)) <= 1e-6

    def test_start_pin_is_exact(self):
        problem = quadratic_problem((4.0, -2.0), [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], [1.0, 1.0])
        sol = solve_offline(problem)
        assert sol.points[0] == pytest.approx((4.0, -2.0), abs=1e-9)

    def test_feasibility_of_output(self):
        rng = np.random.default_rng(2)
        leads = [tuple(p) for p in rng.uniform(0, 10, (8, 2))]
        problem = quadratic_problem((5.0, 5.0), leads, [0.8] * 7, region=TEN_BOX)
        sol = solve_offline(problem)
        assert sol.max_violation <= 1e-6
        for a, b in zip(sol.points, sol.points[1:]):
            assert dist(a, b) <= 0.8 + 1e-6

    def test_warm_start_accepted(self):
        leads = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        problem = quadratic_problem((0.0, 0.0), leads, [1.5, 1.5])
        warm = [(0.0, 0.0), (0.9, 0.0), (1.8, 0.0)]
        sol = solve_offline(problem, x0=warm)
        assert sol.utility >= -0.1

    def test_single_slot(self):
        problem = quadratic_problem((1.0, 1.0), [(0.0, 0.0)], [])
        sol = solve_offline(problem)
        assert sol.points == [(1.0, 1.0)]
        assert sol.utility == pytest.approx(-1.0)

    def test_zero_radius_caps_pin_path(self):
        # r / max(|z|, r) would be 0 / 0 here; the clamp must return 0
        start = (2.0, 1.0)
        T = 6
        for utilities in (
            quadratic_sequence([start] * T),
            d2d_utility_sequence([start] * T, 1.0, 0.3, "huber"),
        ):
            problem = OfflineProblem(
                start=start,
                utilities=utilities,
                caps=tuple(StepCap(i, (0.0, 0.0), 0.0) for i in range(T - 1)),
                region=TEN_BOX,
                smoothness=1.0,
            )
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                sol = solve_offline(problem)
                warm = solve_offline(problem, x0=[start] * T)
            for s in (sol, warm):
                assert s.points == [start] * T
                assert s.converged and s.max_violation == 0.0

    def test_restarts_counted(self):
        # a long chain of binding caps overshoots under momentum
        leads = [(float(t), 3.0 * (-1) ** t) for t in range(40)]
        sol = solve_offline(quadratic_problem((0.0, 0.0), leads, [0.5] * 39))
        assert sol.converged
        assert 0 < sol.restarts < sol.iterations


class TestDpOracle:
    def test_optimum_on_grid_is_found(self):
        # leads sit on lattice nodes and caps are generous
        leads = [(0.0, 0.0), (2.5, 2.5), (5.0, 5.0)]
        problem = quadratic_problem((0.0, 0.0), leads, [4.0, 4.0], region=TEN_BOX)
        oracle = dp_oracle(problem, OracleGrid((0.0, 0.0), (10.0, 10.0), 5, 5))
        assert oracle.utility == pytest.approx(0.0, abs=1e-12)
        assert oracle.points == [(0.0, 0.0), (2.5, 2.5), (5.0, 5.0)]

    def test_zero_cap_pins_agent(self):
        leads = [(0.0, 0.0), (5.0, 5.0), (9.0, 9.0)]
        problem = quadratic_problem((2.0, 3.0), leads, [0.0, 0.0], region=TEN_BOX)
        oracle = dp_oracle(problem, OracleGrid((0.0, 0.0), (10.0, 10.0), 11, 11))
        assert oracle.points == [(2.0, 3.0)] * 3
        expected = sum(-0.5 * norm_sq(sub((2.0, 3.0), e)) for e in leads)
        assert oracle.utility == pytest.approx(expected)

    def test_refinement_never_decreases_utility(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            T = int(rng.integers(2, 6))
            leads = [tuple(p) for p in rng.uniform(0, 10, (T, 2))]
            start = tuple(rng.uniform(0, 10, 2))
            problem = quadratic_problem(start, leads, [2.5] * (T - 1), region=TEN_BOX)
            coarse = dp_oracle(problem, OracleGrid((0.0, 0.0), (10.0, 10.0), 21, 21))
            fine = dp_oracle(problem, OracleGrid((0.0, 0.0), (10.0, 10.0), 41, 41))
            assert fine.utility >= coarse.utility - 1e-12

    def test_too_long_horizon_rejected(self):
        leads = [(0.0, 0.0)] * 7
        problem = quadratic_problem((0.0, 0.0), leads, [1.0] * 6, region=TEN_BOX)
        with pytest.raises(ValueError):
            dp_oracle(problem, OracleGrid((0.0, 0.0), (10.0, 10.0), 11, 11))

    def test_dead_end_raises_grid_too_coarse(self):
        # drifting cap demands a landing cell the coarse grid does not have
        leads = [(0.0, 0.0), (1.0, 1.0)]
        problem = quadratic_problem(
            (0.3, 0.3), leads, [0.1], region=TEN_BOX, centers=[(2.0, 0.0)]
        )
        with pytest.raises(GridTooCoarse):
            dp_oracle(problem, OracleGrid((0.0, 0.0), (10.0, 10.0), 5, 5))

    def test_oracle_sandwich(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            T = int(rng.integers(2, 6))
            leads = [tuple(p) for p in rng.uniform(0, 10, (T, 2))]
            start = tuple(rng.uniform(0, 10, 2))
            problem = quadratic_problem(start, leads, list(rng.uniform(1.5, 3.0, T - 1)), region=TEN_BOX)
            sol = solve_offline(problem)
            oracle = dp_oracle(problem, OracleGrid((0.0, 0.0), (10.0, 10.0), 41, 41))
            assert sol.utility >= oracle.utility - 1e-3


class TestRegret:
    def test_identical_trajectories(self):
        seq = quadratic_sequence([(0.0, 0.0), (1.0, 0.0)])
        traj = [(0.0, 0.0), (0.5, 0.0)]
        assert regret(traj, traj, seq) == 0.0

    def test_hand_sum(self):
        # online frozen at s, offline on the target, distance 1, T=3;
        # utilities here are -|x - d|^2 (unit curvature)
        d = (1.0, 0.0)
        values = tuple((lambda x, e=d: -norm_sq(sub(x, e))) for _ in range(3))
        grads = tuple((lambda x, e=d: (2 * (e[0] - x[0]), 2 * (e[1] - x[1]))) for _ in range(3))
        seq = UtilitySequence(values=values, gradients=grads)
        got = regret([d] * 3, [(0.0, 0.0)] * 3, seq)
        assert got == pytest.approx(3.0)

    def test_mismatched_horizons_rejected(self):
        seq = quadratic_sequence([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(HorizonMismatch):
            regret([(0.0, 0.0)] * 2, [(0.0, 0.0)] * 3, seq)

    def test_nonnegative_against_solver(self):
        rng = np.random.default_rng(14)
        for trial in range(8):
            T = int(rng.integers(2, 9))
            leads = [tuple(p) for p in rng.uniform(0, 10, (T, 2))]
            start = tuple(rng.uniform(0, 10, 2))
            caps_r = list(rng.uniform(0.5, 2.0, T - 1))
            problem = quadratic_problem(start, leads, caps_r, region=TEN_BOX)
            # a feasible online path: greedy capped walk toward each lead
            online = [start]
            for t in range(T - 1):
                pull = sub(leads[t + 1], online[-1])
                d = dist(pull, (0.0, 0.0))
                step = min(1.0, caps_r[t] / d) if d > 0 else 0.0
                nxt = (online[-1][0] + step * pull[0], online[-1][1] + step * pull[1])
                online.append(TEN_BOX.project(nxt))
            sol = solve_offline(problem, x0=online)
            assert regret(sol.points, online, problem.utilities) >= -1e-6


class TestVariationMeasures:
    def test_static_trajectory_path_length(self):
        assert squared_path_length([(1.0, 1.0)] * 5) == 0.0

    def test_alternating_pair(self):
        traj = [(0.0, 0.0), (1.0, 0.0)] * 3  # six slots, five unit hops
        assert squared_path_length(traj) == pytest.approx(5.0)

    def test_straight_line_scaling(self):
        # T equal steps of length D/T sum to D^2 / T
        s, d, T = (0.0, 0.0), (3.0, 4.0), 10
        traj = [(s[0] + (d[0] - s[0]) * t / T, s[1] + (d[1] - s[1]) * t / T) for t in range(T + 1)]
        assert squared_path_length(traj) == pytest.approx(25.0 / T)

    def test_additive_over_splits(self):
        rng = np.random.default_rng(3)
        traj = [tuple(p) for p in rng.uniform(-5, 5, (12, 2))]
        whole = squared_path_length(traj)
        parts = squared_path_length(traj[:7]) + squared_path_length(traj[6:])
        assert whole == pytest.approx(parts)

    def test_time_invariant_gradient_variation_is_zero(self):
        seq = quadratic_sequence([(2.0, 2.0)] * 6)
        gv = gradient_variation(seq, TEN_BOX)
        assert gv.value == 0.0 and gv.exact

    def test_quadratic_closed_form(self):
        leads = [(0.0, 0.0), (1.0, 1.0), (1.5, 0.0)]
        seq = quadratic_sequence(leads)
        gv = gradient_variation(seq, TEN_BOX)
        expected = sum(norm_sq(sub(b, a)) for a, b in zip(leads, leads[1:]))
        assert gv.value == pytest.approx(expected)
        assert gv.exact and gv.n_samples == 0

    def test_sampled_agrees_with_closed_form_for_quadratics(self):
        leads = [(0.0, 0.0), (2.0, 1.0), (3.0, 3.0)]
        exact = gradient_variation(quadratic_sequence(leads), TEN_BOX)
        no_diffs = UtilitySequence(
            values=quadratic_sequence(leads).values,
            gradients=quadratic_sequence(leads).gradients,
        )
        sampled = gradient_variation(no_diffs, TEN_BOX, n_samples=256)
        assert not sampled.exact and sampled.n_samples == 256
        # x-independent differences: sampling is exact too
        assert sampled.value == pytest.approx(exact.value, rel=1e-12)

    def test_monte_carlo_matches_scalar_reference(self):
        rng = np.random.default_rng(4)
        leads = [tuple(p) for p in rng.uniform(0.0, 10.0, (12, 2)).tolist()]
        seq = d2d_utility_sequence(leads, 1.0, 0.2, "huber")
        gv = gradient_variation(seq, TEN_BOX, n_samples=64, seed=7)
        # the per-pair, per-sample loop the batch evaluation replaced
        sample_rng = np.random.default_rng(7)
        xs = sample_rng.uniform(TEN_BOX.lo[0], TEN_BOX.hi[0], 64)
        ys = sample_rng.uniform(TEN_BOX.lo[1], TEN_BOX.hi[1], 64)
        samples = list(zip(xs.tolist(), ys.tolist()))
        expected = 0.0
        for g_now, g_next in zip(seq.gradients, seq.gradients[1:]):
            worst = 0.0
            for p in samples:
                worst = max(worst, norm_sq(sub(g_next(p), g_now(p))))
            expected += worst
        assert not gv.exact and gv.n_samples == 64
        assert gv.value == expected

    def test_variation_measures_additive_over_splits(self):
        rng = np.random.default_rng(9)
        leads = [tuple(p) for p in rng.uniform(0, 10, (9, 2))]
        seq = quadratic_sequence(leads)
        whole = gradient_variation(seq, TEN_BOX).value
        front = gradient_variation(quadratic_sequence(leads[:5]), TEN_BOX).value
        back = gradient_variation(quadratic_sequence(leads[4:]), TEN_BOX).value
        assert whole == pytest.approx(front + back)
        eps_sq = list(rng.uniform(0, 1, 9))
        assert cumulative_error(eps_sq) == pytest.approx(
            cumulative_error(eps_sq[:4]) + cumulative_error(eps_sq[4:])
        )

    def test_vertex_maximum_dominates_interior_samples(self):
        # affine-in-x difference: worst case sits on a box vertex
        lam = [0.3, 0.8]
        goals = [(1.0, 2.0), (4.0, 1.0)]
        vos = [(0.1, 0.0), (0.0, -0.2)]
        values = tuple(
            (lambda x, l=l, g=g, v=v: -l * norm_sq(sub(x, g)) - (1 - l) * (v[0] * x[0] + v[1] * x[1]))
            for l, g, v in zip(lam, goals, vos)
        )
        grads = tuple(
            (lambda x, l=l, g=g, v=v: (-2 * l * (x[0] - g[0]) + (1 - l) * v[0],
                                        -2 * l * (x[1] - g[1]) + (1 - l) * v[1]))
            for l, g, v in zip(lam, goals, vos)
        )
        a = -2 * (lam[1] - lam[0])
        b = (
            2 * (lam[1] * goals[1][0] - lam[0] * goals[0][0]) + (1 - lam[1]) * vos[1][0] - (1 - lam[0]) * vos[0][0],
            2 * (lam[1] * goals[1][1] - lam[0] * goals[0][1]) + (1 - lam[1]) * vos[1][1] - (1 - lam[0]) * vos[0][1],
        )
        seq = UtilitySequence(values=values, gradients=grads, affine_diffs=((a, b),))
        gv = gradient_variation(seq, TEN_BOX)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x = tuple(rng.uniform(0, 10, 2))
            diff = sub(grads[1](x), grads[0](x))
            assert norm_sq(diff) <= gv.value + 1e-9


class TestCumulativeError:
    def test_all_zero(self):
        assert cumulative_error([0.0] * 7 ) == 0.0

    def test_harmonic_sum(self):
        eps_sq = [t ** -1.0 for t in range(1, 5)]  # eps_t = t^-1/2 squared
        assert cumulative_error(eps_sq) == pytest.approx(25.0 / 12.0)

    def test_constant_series(self):
        assert cumulative_error([0.09] * 10) == pytest.approx(0.9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cumulative_error([0.1, -0.1])


class TestEnergy:
    def test_literal_formula(self):
        # rel speed 2 m/s for one 3 s slot: 1 * 2^3 * 3 = 24 J
        traj = [(0.0, 0.0), (6.0, 0.0)]
        assert energy_cost(traj, None, 1.0, slot_duration=3.0) == 24.0

    def test_drift_only_is_free(self):
        fld = synth_field(UniformSpec(0.5, -0.25), (0.0, 100.0), (-100.0, 100.0))
        tau = 2.0
        traj = [(0.0, 0.0), (1.0, -0.5), (2.0, -1.0)]
        assert energy_cost(traj, fld, 3.0, slot_duration=tau) == 0.0

    def test_opposing_current(self):
        fld = synth_field(UniformSpec(-0.5, 0.0), (0.0, 100.0), (-100.0, 100.0))
        traj = [(float(t), 0.0) for t in range(6)]  # ground speed 1 m/s
        got = energy_cost(traj, fld, 1.0, slot_duration=1.0)
        assert got == pytest.approx(1.5**3 * 5)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(6)
        fld = synth_field(UniformSpec(0.2, 0.1), (0.0, 100.0), (0.0, 100.0))
        traj = [tuple(p) for p in rng.uniform(0, 50, (9, 2))]
        assert energy_cost(traj, fld, 0.7) >= 0.0

    def test_conserved_straight_line_is_zero(self):
        goal = (10.0, 0.0)
        traj = straight_line_trajectory((0.0, 0.0), goal, 6)
        assert energy_conserved(traj, goal, None, 1.0) == 0.0

    def test_conserved_sign_follows_current(self):
        # drifting at current speed is free; the slower straight line must
        # brake against the current and pays for it
        goal = (6.0, 0.0)
        helpful = synth_field(UniformSpec(1.0, 0.0), (0.0, 20.0), (-10.0, 10.0))
        drift_path = [(float(2 * t), 0.0) for t in range(6)]
        assert energy_conserved(drift_path, goal, helpful, 1.0, slot_duration=2.0) > 0.0
        against = synth_field(UniformSpec(-0.5, 0.0), (0.0, 20.0), (-10.0, 10.0))
        detour = [(0.0, 0.0), (2.0, 2.0), (4.0, 3.0), (6.0, 2.0), (8.0, 1.0), (10.0, 0.0)]
        assert energy_conserved(detour, (10.0, 0.0), against, 1.0) < 0.0


class TestUtilitySequenceBatch:
    def test_batch_paths_agree_with_scalar(self):
        leads = [(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]
        lead_arr = np.asarray(leads)
        base = quadratic_sequence(leads)
        batched = UtilitySequence(
            values=base.values,
            gradients=base.gradients,
            affine_diffs=base.affine_diffs,
            batch_value=lambda x: -0.5 * float(np.sum((x - lead_arr) ** 2)),
            batch_gradient=lambda x: lead_arr - x,
        )
        pts = [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)]
        assert batched.total(pts) == pytest.approx(sum(u(p) for u, p in zip(base.values, pts)))
        ga = batched.gradient_array(np.asarray(pts))
        gb = base.gradient_array(np.asarray(pts))
        assert np.allclose(ga, gb)
