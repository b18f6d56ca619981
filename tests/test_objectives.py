import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsim import objectives as obj
from trajsim.errors import EmptyStepInterval, RootExistence
from trajsim.geom import dist, norm

from gradient_reference import d2d_gradient_piecewise

unit = st.floats(0.0, 1.0, allow_nan=False)
coords = st.floats(-20.0, 20.0, allow_nan=False)
points = st.tuples(coords, coords)


def central_difference(f, x, h=1e-5):
    gx = (f((x[0] + h, x[1])) - f((x[0] - h, x[1]))) / (2 * h)
    gy = (f((x[0], x[1] + h)) - f((x[0], x[1] - h))) / (2 * h)
    return (gx, gy)


class TestLeadingPath:
    def test_endpoints(self):
        assert obj.leading_path((1.0, 2.0), (5.0, 6.0), 1.0) == (1.0, 2.0)
        assert obj.leading_path((1.0, 2.0), (5.0, 6.0), 0.0) == (5.0, 6.0)

    def test_midpoint(self):
        assert obj.leading_path((0.0, 0.0), (2.0, 4.0), 0.5) == (1.0, 2.0)

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ValueError):
            obj.leading_path((0.0, 0.0), (1.0, 1.0), 1.5)


class TestHuber:
    def test_quadratic_branch(self):
        assert obj.huber_value(0.5, 1.0, 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_continuity_at_crossover(self):
        # both branches evaluated at the crossover distance must agree
        for mu in (0.1, 0.5, 0.9):
            v = 1.0
            left = 0.5 * v * v
            right = v * (1 - mu) * v + 0.5 * mu * v * v - (1 - mu) * v * v / 2
            assert abs(left - right) <= 1e-15
            assert obj.huber_value(v, v, mu) == pytest.approx(0.5, abs=1e-15)

    def test_far_branch_value(self):
        # 0.5*2 + 0.25*4 - 0.25
        assert obj.huber_value(2.0, 1.0, 0.5) == pytest.approx(1.75, abs=1e-12)

    @given(mu=st.floats(0.05, 1.0), v=st.floats(0.1, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_c1_at_crossover(self, mu, v):
        eps = 1e-7
        below = obj.huber_value(v - eps, v, mu)
        above = obj.huber_value(v + eps, v, mu)
        assert abs(below - above) <= 1e-5
        assert abs(obj.huber_gradient_norm(v, v, mu) - v) <= 1e-10

    def test_strong_concavity_shift_midpoint(self):
        # the utility plus a quadratic of curvature mu must stay concave
        rng = np.random.default_rng(5)
        v, mu, ell = 1.0, 0.3, (1.0, -2.0)

        def shifted(x):
            return obj.d2d_utility(x, ell, v, mu, "huber") + 0.5 * mu * (x[0] ** 2 + x[1] ** 2)

        for _ in range(500):
            a = tuple(rng.uniform(-8, 8, 2))
            b = tuple(rng.uniform(-8, 8, 2))
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            assert shifted(mid) >= 0.5 * (shifted(a) + shifted(b)) - 1e-9


class TestD2DGradient:
    def test_inside_cap_is_plain_pull(self):
        for mu in (0.1, 0.5, 1.0):
            g = obj.d2d_gradient((0.0, 0.0), (0.3, 0.4), 1.0, mu)
            assert g == pytest.approx((0.3, 0.4), abs=1e-15)

    def test_capped_pull_small_mu(self):
        g = obj.d2d_gradient((0.0, 0.0), (3.0, 4.0), 1.0, 1e-12)
        assert g == pytest.approx((0.6, 0.8), abs=1e-9)

    def test_blended_far_pull(self):
        g = obj.d2d_gradient((0.0, 0.0), (3.0, 4.0), 1.0, 0.5)
        assert g == pytest.approx((1.8, 2.4), abs=1e-12)

    def test_combined_equals_piecewise(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            x = tuple(rng.uniform(-10, 10, 2))
            ell = tuple(rng.uniform(-10, 10, 2))
            mu = rng.uniform(1e-6, 1.0)
            v = rng.uniform(0.1, 5.0)
            a = obj.d2d_gradient(x, ell, v, mu)
            b = d2d_gradient_piecewise(x, ell, v, mu)
            assert dist(a, b) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        v = 1.0
        checked = 0
        while checked < 1000:
            x = tuple(rng.uniform(-6, 6, 2))
            ell = tuple(rng.uniform(-6, 6, 2))
            mu = rng.uniform(0.05, 1.0)
            if abs(dist(x, ell) - v) < 1e-3:  # keep clear of the kink
                continue
            fd = central_difference(lambda p: obj.d2d_utility(p, ell, v, mu, "huber"), x)
            g = obj.d2d_gradient(x, ell, v, mu)
            assert dist(g, fd) <= 1e-6 * max(1.0, norm(g))
            checked += 1


class TestD2DStepSize:
    def test_gradient_dominated(self):
        gamma = obj.d2d_step_size(5.0, 1.0, 1.0, 0.5, L=1.0, margin=1.01)
        assert gamma == pytest.approx(5.05, abs=1e-12)
        assert gamma < 5.0 / 0.5

    def test_smoothness_dominated(self):
        gamma = obj.d2d_step_size(1.0, 10.0, 1.0, 0.05, L=1.0, margin=1.01)
        assert gamma == pytest.approx(1.01, abs=1e-12)

    def test_open_interval_boundary_raises(self):
        # alpha_t == alpha_min with margin exactly 1: chosen value hits the
        # open upper bound, so the interval is empty
        with pytest.raises(EmptyStepInterval) as err:
            obj.d2d_step_size(5.0, 1.0, 0.8, 0.8, L=1.0, margin=1.0)
        assert err.value.upper == pytest.approx(6.25)

    def test_step_stays_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            v = rng.uniform(0.2, 4.0)
            alpha_t = rng.uniform(0.3, 1.0)
            gnorm = rng.uniform(1e-3, 30.0)
            gbar = gnorm * rng.uniform(1.0, 2.0)
            gamma = obj.d2d_step_size(gbar, v, alpha_t, 0.01, L=1.0, margin=1.01)
            assert gnorm / gamma <= alpha_t * v + 1e-12


class TestRate:
    def test_unit_distance_value(self):
        got = obj.rate((0.0, 0.0), (1.0, 0.0), 2.5, 1.0, 0.2)
        assert got == pytest.approx(math.log2(1.0 + 5.0 / 6.0), rel=1e-12)
        assert got == pytest.approx(0.87447, abs=5e-6)

    def test_far_field_vanishes(self):
        assert obj.rate((0.0, 0.0), (1e9, 0.0), 2.5, 1.0, 0.2) < 1e-15

    def test_noiseless_limit_is_bandwidth(self):
        got = obj.rate((0.0, 0.0), (2.0, 0.0), 2.0, 7.0, 1e-15)
        assert got == pytest.approx(7.0, rel=1e-6)

    def test_distance_clamped_near_zero(self):
        at_zero = obj.rate((0.0, 0.0), (0.0, 0.0), 2.5, 1.0, 0.2)
        at_one = obj.rate((0.0, 0.0), (1.0, 0.0), 2.5, 1.0, 0.2)
        assert at_zero == at_one


class TestLambdaSchedules:
    def test_increasing_examples(self):
        assert obj.lambda_increasing(10, 10) == 1.0
        assert obj.lambda_increasing(1, 10) == pytest.approx(0.1)
        assert obj.lambda_increasing(5, 10) == pytest.approx(0.5)

    def test_direction_cells(self):
        assert obj.directional_weight(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert obj.directional_weight(0.0, 1.2) == pytest.approx(1.0, abs=1e-12)
        assert obj.directional_weight(0.5, math.pi / 2) == pytest.approx(0.75, abs=1e-12)

    def test_geometric_form(self):
        # favorable strong current straight toward the goal
        lam = obj.lambda_direction((10.0, 0.0), (0.0, 0.0), (1.0, 0.0), 1.0)
        assert lam == pytest.approx(0.0, abs=1e-15)
        # still water
        assert obj.lambda_direction((10.0, 0.0), (0.0, 0.0), (0.0, 0.0), 1.0) == 1.0
        # goal reached: conservative weight
        assert obj.lambda_direction((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), 2.0) == 1.0

    def test_strength_clamped(self):
        lam = obj.lambda_direction((10.0, 0.0), (0.0, 0.0), (5.0, 0.0), 1.0)
        assert lam == pytest.approx(0.0, abs=1e-15)

    @given(eta=unit, theta=st.floats(0.0, math.pi))
    @settings(max_examples=200, deadline=None)
    def test_weight_range(self, eta, theta):
        assert 0.0 <= obj.directional_weight(eta, theta) <= 1.0

    @given(eta=unit, theta=st.floats(0.0, math.pi), beta=st.floats(0.0, 5.0), frac=unit)
    @settings(max_examples=200, deadline=None)
    def test_throttle_range(self, eta, theta, beta, frac):
        a = obj.alpha_schedule(beta, frac * 40, 40, eta, theta)
        assert 0.0 < a <= 1.0


class TestAlphaSchedule:
    def test_zero_exponent_cases(self):
        assert obj.alpha_schedule(0.0, 5.0, 10, 1.0, 0.0) == 1.0
        assert obj.alpha_schedule(3.0, 0.0, 10, 0.0, math.pi) == 1.0

    def test_worked_value(self):
        got = obj.alpha_schedule(1.0, 1.0, 10, 1.0, 0.0)
        assert got == pytest.approx(math.exp(-1.1), rel=1e-12)
        assert got == pytest.approx(0.33287, abs=5e-6)


class TestOceanUtility:
    def test_goal_only(self):
        got = obj.ocean_utility((1.0, 1.0), (0.0, 0.0), (4.0, 5.0), (2.0, 0.0), 1.0)
        assert got == pytest.approx(-25.0)

    def test_zero_displacement_drift(self):
        got = obj.ocean_utility((1.0, 1.0), (1.0, 1.0), (4.0, 5.0), (2.0, 0.0), 0.0)
        assert got == 0.0

    def test_hand_value(self):
        got = obj.ocean_utility((1.0, 0.0), (0.0, 0.0), (2.0, 0.0), (1.0, 0.0), 0.5)
        assert got == pytest.approx(0.0, abs=1e-15)


class TestOceanGradient:
    def test_goal_only(self):
        g = obj.ocean_gradient((1.0, 2.0), (0.0, 0.0), (9.0, 9.0), 1.0)
        assert g == pytest.approx((-2.0, -4.0))

    def test_drift_only(self):
        g = obj.ocean_gradient((1.0, 2.0), (0.0, 0.0), (0.3, -0.4), 0.0)
        assert g == pytest.approx((0.3, -0.4))

    def test_hand_value(self):
        g = obj.ocean_gradient((1.0, 0.0), (0.0, 0.0), (0.0, 2.0), 0.5)
        assert g == pytest.approx((-1.0, 1.0))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x = tuple(rng.uniform(-5, 5, 2))
            x_prev = tuple(rng.uniform(-5, 5, 2))
            d = tuple(rng.uniform(-5, 5, 2))
            vo = tuple(rng.uniform(-1, 1, 2))
            lam = rng.uniform(0.0, 1.0)
            fd = central_difference(lambda p: obj.ocean_utility(p, x_prev, d, vo, lam), x)
            g = obj.ocean_gradient(x, d, vo, lam)
            assert dist(g, fd) <= 1e-6 * max(1.0, norm(g))


class TestOceanStepSize:
    def test_still_water_collapse(self):
        # no current: the quadratic reduces to gamma = |grad| / (alpha v)
        gamma = obj.ocean_step_size((3.0, 4.0), (0.0, 0.0), 1.0, 1.0, L=2.0, margin=1e-6)
        assert gamma == pytest.approx(5.0, rel=1e-12)

    def test_worked_root(self):
        gamma = obj.ocean_step_size((1.0, 0.0), (0.5, 0.0), 1.0, 1.0, L=2.0, margin=1e-9)
        assert gamma == pytest.approx(2.0 / 3.0, rel=1e-12)
        step = (1.0 / gamma, 0.0)
        assert dist(step, (0.5, 0.0)) == pytest.approx(1.0, rel=1e-12)

    def test_root_existence_violated(self):
        with pytest.raises(RootExistence):
            obj.ocean_step_size((1.0, 0.0), (1.0, 0.0), 0.5, 1.0)

    def test_zero_gradient_returns_floor(self):
        gamma = obj.ocean_step_size((0.0, 0.0), (0.1, 0.0), 1.0, 1.0, L=2.0, margin=1.01)
        assert gamma == pytest.approx(2.02)

    def test_feasibility_at_root_and_after_clamp(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            v = rng.uniform(0.5, 3.0)
            vo = tuple(rng.uniform(-0.4, 0.4, 2) * v)
            alpha = rng.uniform(norm(vo) / v + 0.05, 1.0)
            grad = tuple(rng.uniform(-8, 8, 2))
            if norm(grad) < 1e-9:
                continue
            gamma = obj.ocean_step_size(grad, vo, alpha, v, L=2.0, margin=1.01)
            rel = dist((grad[0] / gamma, grad[1] / gamma), vo)
            assert rel <= alpha * v + 1e-9
            if gamma > 2.0 * 1.01:  # unclamped: the cap binds exactly
                assert rel == pytest.approx(alpha * v, rel=1e-9)
