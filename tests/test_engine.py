import math

import numpy as np
import pytest
import episode_reference
from episode_reference import EDGE_FLOATS, outcome, run_episode_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trajsim.engine
from trajsim.engine import (
    NOISE_BLOCK,
    EngineState,
    NoiseModel,
    StepRecord,
    ioga_step,
    normal_pair,
    normal_pairs,
    run_episode,
)
from trajsim.errors import EmptyStepInterval, InfeasibleStepSize, SchemaError
from trajsim.geom import dist, norm, norm_sq, sub
from trajsim.sets import Box2D

FREE = Box2D((-1e9, -1e9), (1e9, 1e9))

REALS = st.floats() | st.sampled_from(EDGE_FLOATS)


@st.composite
def steps(draw):
    """A state, gradient, rate and box for ``ioga_step``; waypoints may sit on a face."""
    a, b, c, d = (draw(REALS) for _ in range(4))
    # Box2D rejects lo > hi and takes a NaN bound
    (lo0, hi0), (lo1, hi1) = (b, a) if a > b else (a, b), (d, c) if c > d else (c, d)
    x = (draw(REALS | st.sampled_from([lo0, hi0])), draw(REALS | st.sampled_from([lo1, hi1])))
    state = EngineState(draw(st.integers(1, 10**6)), x, (0.0, 0.0), draw(REALS))
    return state, (draw(REALS), draw(REALS)), draw(REALS), Box2D((lo0, lo1), (hi0, hi1))


class TestNoiseModel:
    def test_none_is_exactly_zero(self):
        n = NoiseModel(kind="none").draw(3)
        assert (1.0 + n[0], 2.0 + n[1]) == (1.0, 2.0)
        assert norm_sq(n) == 0.0

    def test_eps0_zero_is_exactly_zero(self):
        model = NoiseModel(kind="gaussian_decaying", eps0=0.0, decay_q=1.0, seed=9)
        n = model.draw(3)
        assert (1.0 + n[0], 2.0 + n[1]) == (1.0, 2.0)
        assert norm_sq(n) == 0.0

    def test_monte_carlo_second_moment(self):
        # eps_t = 1 * 4^-0.5 = 0.5, so E[|n|^2] = 0.25
        total = 0.0
        n = 100_000
        for seed in range(n):
            model = NoiseModel(kind="gaussian_decaying", eps0=1.0, decay_q=0.5, seed=seed)
            total += norm_sq(model.draw(4))
        assert total / n == pytest.approx(0.25, rel=0.05)

    def test_bound_matches_schedule(self):
        model = NoiseModel(kind="gaussian_decaying", eps0=1.0, decay_q=0.5, seed=0)
        assert model.eps_sq_bound(4) == pytest.approx(0.25)
        assert NoiseModel(kind="none").eps_sq_bound(4) == 0.0

    def test_replay_is_bit_identical(self):
        model = NoiseModel(kind="gaussian_decaying", eps0=0.3, decay_q=0.2, seed=42)
        assert model.draw(7) == model.draw(7)
        assert model.draw(7) != model.draw(8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError) as err:
            NoiseModel(kind="laplace")
        assert err.value.path == "gradient_noise.kind"


class TestNoiseStream:
    def test_draw_ignores_call_order(self):
        model = NoiseModel(kind="gaussian_decaying", eps0=0.7, decay_q=0.5, seed=123)
        forward = [model.draw(t) for t in range(1, 200)]
        backward = [model.draw(t) for t in range(199, 0, -1)][::-1]
        fresh = NoiseModel(kind="gaussian_decaying", eps0=0.7, decay_q=0.5, seed=123)
        assert forward == backward
        assert fresh.draw(150) == forward[149]

    def test_draw_ignores_horizon(self):
        targets = [(2.0 * t, -1.0 * t) for t in range(1, 41)]
        noise = NoiseModel(kind="gaussian_decaying", eps0=0.3, decay_q=0.4, seed=17)
        _, short = run_episode(_ChaserDriver(targets, 12, noise))
        _, long = run_episode(_ChaserDriver(targets, 40, noise))
        assert list(short) == long[: len(short)]

    def test_peer_observation_shares_the_draw(self):
        from trajsim.objectives import d2d_gradient, lambda_increasing, leading_path
        from trajsim.scenarios import _PEER_SEED_OFFSET, PathSpec, ScenarioConfig, _D2DDriver

        cfg = ScenarioConfig(
            kind="d2d",
            goal=PathSpec((50.0, 0.0), (50.0, 0.0)),
            peer=PathSpec((0.0, 3.0), (0.0, 3.0)),
            peer_noise_std_m=1.0,
        )
        seed = cfg.derived_seed(_PEER_SEED_OFFSET)
        # eps0 = sqrt(2) with no decay gives sigma = 1 exactly
        model = NoiseModel(kind="gaussian_decaying", eps0=2.0**0.5, decay_q=0.0, seed=seed)
        for t in (1, 2, 3, 1000, 10**9):
            assert model.draw(t) == normal_pair(seed, t)
        # the commute driver sees the peer displaced by the same unit-sigma pair
        driver = _D2DDriver(cfg)
        x = (0.0, 0.0)
        for t in (1, 2, 3):
            _, grad_obs = driver.plan(t, x, "standard")
            z0, z1 = model.draw(t)
            lam = lambda_increasing(t, driver.horizon)
            ell = leading_path((0.0 + z0, 3.0 + z1), driver.goals[t - 1], 1.0 - lam)
            assert grad_obs == d2d_gradient(x, ell, driver.v, cfg.mu)

    def test_second_moment_and_mean_over_slots(self):
        model = NoiseModel(kind="gaussian_decaying", eps0=1.0, decay_q=0.0, seed=2024)
        draws = np.array([model.draw(t) for t in range(1, 100_001)])
        assert np.isfinite(draws).all()
        assert np.mean(np.sum(draws * draws, axis=1)) == pytest.approx(1.0, rel=0.02)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.01)

    def test_pairs_uncorrelated_within_and_across_slots(self):
        n = 100_000
        z = np.array([normal_pair(2024, t) for t in range(1, n + 1)])
        z0, z1 = z[:, 0], z[:, 1]
        # five standard errors of a sample correlation of independent normals
        limit = 5.0 / math.sqrt(n)
        for a, b in [(z0, z1), (z0[:-1], z0[1:]), (z1[:-1], z1[1:]), (z1[:-1], z0[1:])]:
            assert abs(np.corrcoef(a, b)[0, 1]) < limit

    def test_adjacent_seeds_uncorrelated(self):
        n = 100_000
        a = np.array([normal_pair(7, t) for t in range(1, n + 1)])
        b = np.array([normal_pair(8, t) for t in range(1, n + 1)])
        limit = 5.0 / math.sqrt(n)
        for i in (0, 1):
            assert abs(np.corrcoef(a[:, i], b[:, i])[0, 1]) < limit
            assert abs(np.corrcoef(a[1:, i], b[:-1, i])[0, 1]) < limit

    @pytest.mark.parametrize("h", [0, (1 << 64) - 1])
    def test_extreme_hashes_stay_finite(self, monkeypatch, h):
        monkeypatch.setattr(trajsim.engine, "_mix64", lambda z: h)
        z0, z1 = normal_pair(1, 1)
        assert math.isfinite(z0) and math.isfinite(z1)


def _bits(values) -> bytes:
    """The float64 bits of a (nested) float sequence; tells -0.0 from 0.0."""
    return np.asarray(values, dtype=float).tobytes()


class TestBatchNoise:
    """The one-pass horizon draw against the per-slot scalar draw, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(-(2**70), 2**70), t0=st.integers(0, 10**7), n=st.integers(0, 300))
    # the seeds that exercise the & _MASK64 wrap
    @example(seed=0, t0=0, n=300)
    @example(seed=-1, t0=1, n=300)
    @example(seed=2**63, t0=10**7, n=300)
    @example(seed=2**64 - 1, t0=10**7, n=300)
    def test_normal_pairs_equal_the_scalar_pairs(self, seed, t0, n):
        z0, z1 = normal_pairs(seed, t0, n)
        want = [normal_pair(seed, t) for t in range(t0, t0 + n)]
        assert _bits(np.stack([z0, z1], axis=-1)) == _bits(want)

    @pytest.mark.parametrize("n, t0", [(0, 1), (1, 1), (5000, 1), (700, 1025)])
    @pytest.mark.parametrize(
        "model",
        [
            NoiseModel(kind="none"),
            NoiseModel(kind="gaussian_decaying", eps0=0.3, decay_q=0.7, seed=2**64 - 1),
            NoiseModel(kind="gaussian_decaying", eps0=0.0, decay_q=1.0, seed=9),
            # the draws overflow to inf as quietly as the scalar products
            NoiseModel(kind="gaussian_decaying", eps0=1e308, decay_q=0.0, seed=9),
        ],
        ids=["none", "gaussian_decaying", "eps0_zero", "eps0_overflowing"],
    )
    def test_draws_equal_the_per_slot_calls(self, model, n, t0):
        eps, draws = model.draws(n) if t0 == 1 else model.draws(n, t0)
        slots = range(t0, t0 + n)
        assert _bits(eps) == _bits([model.eps(t) for t in slots])
        assert _bits(draws) == _bits([model.draw(t) for t in slots])
        assert all(type(e) is float for e in eps)
        assert all(type(c) is float for d in draws for c in d)


    @pytest.mark.parametrize("mode", ["standard", "lookahead"])
    def test_blocked_episode_equals_the_per_slot_loop(self, mode):
        # two and a half noise blocks, each drawn in one array pass
        T = 5 * NOISE_BLOCK // 2
        targets = [(0.01 * t, 3.0 * math.sin(0.01 * t)) for t in range(1, T + 1)]
        noise = NoiseModel(kind="gaussian_decaying", eps0=0.3, decay_q=0.4, seed=17)
        got = run_episode(_ChaserDriver(targets, T, noise), mode)
        want = run_episode_reference(_ChaserDriver(targets, T, noise), mode)
        # element by element, so that a failure names its first slot quickly
        for got_part, want_part in zip(got, want):
            assert list(map(repr, got_part)) == list(map(repr, want_part))


class TestIogaStep:
    def test_free_space_arithmetic(self):
        state = EngineState(t=1, x_hat=(0.0, 0.0), x_prev=(0.0, 0.0))
        out = ioga_step(state, (3.0, 4.0), 10.0, FREE)
        assert out.x_hat == pytest.approx((0.3, 0.4))
        assert out.t == 2
        assert out.x_prev == (0.0, 0.0)
        assert out.gbar_running == pytest.approx(5.0)

    def test_zero_gradient_fixed_point(self):
        state = EngineState(t=4, x_hat=(1.5, -2.0), x_prev=(1.0, -2.0), gbar_running=3.0)
        out = ioga_step(state, (0.0, 0.0), 2.0, FREE)
        assert out.x_hat == (1.5, -2.0)
        assert out.gbar_running == 3.0

    def test_clamped_at_box_face(self):
        state = EngineState(t=1, x_hat=(0.9, 0.0), x_prev=(0.9, 0.0))
        out = ioga_step(state, (1.0, 0.0), 1.0, Box2D((0.0, 0.0), (1.0, 1.0)))
        assert out.x_hat == (1.0, 0.0)

    def test_nonpositive_gamma_rejected(self):
        state = EngineState(t=1, x_hat=(0.0, 0.0), x_prev=(0.0, 0.0))
        with pytest.raises(ValueError):
            ioga_step(state, (1.0, 0.0), 0.0, FREE)

    def test_nan_gamma_rejected(self):
        state = EngineState(t=1, x_hat=(0.0, 0.0), x_prev=(0.0, 0.0))
        with pytest.raises(ValueError):
            ioga_step(state, (1.0, 0.0), math.nan, FREE)

    @settings(max_examples=400, deadline=None)
    @given(args=steps())
    # zero steps onto a face of the other sign: max(-0.0, 0.0) keeps -0.0 and
    # max(0.0, -0.0) keeps 0.0; a NaN stays NaN
    @example(args=(EngineState(1, (-0.0, 0.0), (0.0, 0.0)), (-0.0, 0.0), 1.0, Box2D((0.0, -0.0), (1.0, 0.0))))
    @example(args=(EngineState(1, (math.nan, 1.0), (0.0, 0.0), math.nan), (0.0, math.inf), 2.0, FREE))
    def test_comparisons_keep_the_builtin_clamps(self, args):
        assert outcome(ioga_step, *args) == outcome(episode_reference.ioga_step, *args)


class _ChaserDriver:
    """Chases a scripted target with unit-capped steps; test scaffolding."""

    def __init__(self, targets, horizon, noise=NoiseModel(), v=1.0, region=FREE):
        self.targets = targets
        self.horizon = horizon
        self.noise = noise
        self.start = (0.0, 0.0)
        self.region = region
        self.v = v

    def plan(self, t, x_hat, mode):
        self.t = t
        ti = min(t + 1 if mode == "lookahead" else t, self.horizon) - 1
        target = self.targets[ti]
        pull = sub(target, x_hat)
        n = norm(pull)
        capped = pull if n <= self.v else (self.v / n * pull[0], self.v / n * pull[1])
        return capped, capped

    def gamma(self, grad_tilde, gbar):
        return 1.01 * max(gbar / self.v, 1.0)

    def slack(self, a, b):
        return dist(a, b) - self.v


class TestRunEpisode:
    def test_single_slot_episode(self):
        driver = _ChaserDriver([(5.0, 5.0)], horizon=1)
        traj, records = run_episode(driver)
        assert traj == [(0.0, 0.0)]
        assert list(records) == []

    def test_every_record_satisfies_slack(self):
        targets = [(float(t), 0.5 * t) for t in range(1, 13)]
        traj, records = run_episode(_ChaserDriver(targets, 12))
        assert len(traj) == 12
        for rec in records:
            assert rec.constraint_slack <= 1e-9
            assert rec.gamma > 0

    def test_deterministic_replay(self):
        targets = [(float(t), -t) for t in range(1, 9)]
        noise = NoiseModel(kind="gaussian_decaying", eps0=0.2, decay_q=0.3, seed=5)
        t1, _ = run_episode(_ChaserDriver(targets, 8, noise))
        t2, _ = run_episode(_ChaserDriver(targets, 8, noise))
        assert t1 == t2

    def test_gbar_running_is_monotone_max(self):
        targets = [(3.0 * t, 0.0) for t in range(1, 10)]
        noise = NoiseModel(kind="gaussian_decaying", eps0=0.1, decay_q=0.0, seed=2)
        _, records = run_episode(_ChaserDriver(targets, 9, noise))
        running = 0.0
        for rec in records:
            running = max(running, norm(rec.grad_tilde))
            # gamma encodes the estimate: gamma = 1.01 * max(gbar, 1)
            assert rec.gamma == pytest.approx(1.01 * max(running, 1.0))

    def test_noise_zero_equivalence(self):
        targets = [(float(t), 0.0) for t in range(1, 15)]
        a, _ = run_episode(_ChaserDriver(targets, 14, NoiseModel(kind="none")))
        b, _ = run_episode(
            _ChaserDriver(
                targets, 14, NoiseModel(kind="gaussian_decaying", eps0=0.0, decay_q=1.0, seed=3)
            )
        )
        assert a == b

    def test_eps_sq_realized_tracks_observation_gap(self):
        targets = [(2.0, 0.0)] * 6
        noise = NoiseModel(kind="gaussian_decaying", eps0=0.4, decay_q=0.5, seed=11)
        _, records = run_episode(_ChaserDriver(targets, 6, noise))
        for rec in records:
            assert rec.eps_sq_realized >= 0.0
            assert rec.eps_sq_bound == pytest.approx(0.16 * rec.t ** -1.0)

    def test_columns_read_as_a_sequence_of_records(self):
        targets = [(float(t), 0.5 * t) for t in range(1, 8)]
        noise = NoiseModel(kind="gaussian_decaying", eps0=0.2, decay_q=0.3, seed=5)
        traj, cols = run_episode(_ChaserDriver(targets, 7, noise))
        want = run_episode_reference(_ChaserDriver(targets, 7, noise))[1]
        assert len(cols) == len(want) == 6
        assert all(type(rec) is StepRecord for rec in cols)
        assert list(cols) == want
        assert [cols[i] for i in range(-6, 6)] == want + want
        for s in (slice(None), slice(1, 5, 2), slice(-2, None), slice(None, None, -1), slice(9, None)):
            assert cols[s] == want[s], s
        for i in (6, -7, len(traj)):
            with pytest.raises(IndexError):
                cols[i]
        assert want[3] in cols and cols.index(want[3]) == 3
        assert list(reversed(cols)) == want[::-1]
        assert [x for rec in cols for x in (rec.x_before, rec.x_after)] == [
            x for pair in zip(traj, traj[1:]) for x in pair
        ]
        assert cols.grad_norm == [norm(rec.grad_tilde) for rec in want]

    def test_infeasible_policy_surfaces_slot(self):
        class BadGamma(_ChaserDriver):
            def gamma(self, grad_tilde, gbar):
                if self.t == 3:
                    raise EmptyStepInterval(1.0, 0.5, 1.0)
                return super().gamma(grad_tilde, gbar)

        with pytest.raises(InfeasibleStepSize) as err:
            run_episode(BadGamma([(9.0, 9.0)] * 8, 8))
        assert err.value.slot == 3

    def test_cap_violating_step_aborts(self):
        class Cheater(_ChaserDriver):
            def gamma(self, grad_tilde, gbar):
                return 0.1  # step far beyond the cap

        with pytest.raises(InfeasibleStepSize):
            run_episode(Cheater([(50.0, 0.0)] * 5, 5))

    def test_nan_gradient_aborts_at_its_slot(self):
        # max(0.0, nan) is 0.0, so the step size stays finite and only the
        # NaN slack of the executed step can stop the episode
        class NanGradient(_ChaserDriver):
            def plan(self, t, x_hat, mode):
                super().plan(t, x_hat, mode)
                return (math.nan, 0.0), (math.nan, 0.0)

        with pytest.raises(InfeasibleStepSize) as err:
            run_episode(NanGradient([(3.0, 0.0)] * 4, 4))
        assert err.value.slot == 1

    def test_nan_step_size_aborts_at_its_slot(self):
        class NanGamma(_ChaserDriver):
            def gamma(self, grad_tilde, gbar):
                return math.nan if self.t == 2 else super().gamma(grad_tilde, gbar)

        with pytest.raises(InfeasibleStepSize) as err:
            run_episode(NanGamma([(3.0, 0.0)] * 4, 4))
        assert err.value.slot == 2

    def test_lookahead_uses_next_slot_target(self):
        # static target: both modes coincide
        static = [(0.4, 0.0)] * 5
        a, _ = run_episode(_ChaserDriver(static, 5), mode="standard")
        b, _ = run_episode(_ChaserDriver(static, 5), mode="lookahead")
        assert a == b
        # moving target: lookahead heads for the next position
        moving = [(0.1 * t, 0.0) for t in range(1, 6)]
        std, _ = run_episode(_ChaserDriver(moving, 5), mode="standard")
        look, _ = run_episode(_ChaserDriver(moving, 5), mode="lookahead")
        assert std != look
        gamma = 1.01  # gbar below 1 so the smoothness branch rules
        assert std[1][0] == pytest.approx(moving[0][0] / gamma)
        assert look[1][0] == pytest.approx(moving[1][0] / gamma)
