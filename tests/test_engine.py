import math

import numpy as np
import pytest

import trajsim.engine
from trajsim.engine import (
    EngineState,
    NoiseModel,
    SlotPlan,
    ioga_step,
    noisy_gradient,
    normal_pair,
    run_episode,
)
from trajsim.errors import EmptyStepInterval, InfeasibleStepSize
from trajsim.geom import dist, norm, sub
from trajsim.sets import Box2D

FREE = Box2D((-1e9, -1e9), (1e9, 1e9))


class TestNoiseModel:
    def test_none_is_exactly_zero(self):
        g, eps_sq = noisy_gradient((1.0, 2.0), NoiseModel(kind="none"), t=3)
        assert g == (1.0, 2.0)
        assert eps_sq == 0.0

    def test_eps0_zero_is_exactly_zero(self):
        model = NoiseModel(kind="gaussian_decaying", eps0=0.0, decay_q=1.0, seed=9)
        g, eps_sq = noisy_gradient((1.0, 2.0), model, t=3)
        assert g == (1.0, 2.0)
        assert eps_sq == 0.0

    def test_monte_carlo_second_moment(self):
        # eps_t = 1 * 4^-0.5 = 0.5, so E[|n|^2] = 0.25
        total = 0.0
        n = 100_000
        for seed in range(n):
            model = NoiseModel(kind="gaussian_decaying", eps0=1.0, decay_q=0.5, seed=seed)
            _, eps_sq = noisy_gradient((0.0, 0.0), model, t=4)
            total += eps_sq
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
        with pytest.raises(ValueError):
            NoiseModel(kind="laplace")


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
        assert short == long[: len(short)]

    def test_peer_observation_shares_the_draw(self):
        from trajsim.scenarios import _PeerNoise

        # eps0 = sqrt(2) with no decay gives sigma = 1 exactly
        model = NoiseModel(kind="gaussian_decaying", eps0=2.0**0.5, decay_q=0.0, seed=99)
        peer = _PeerNoise(1.0, 99)
        for t in (1, 2, 3, 1000, 10**9):
            assert peer.observe((0.0, 0.0), t) == model.draw(t) == normal_pair(99, t)

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


class _ChaserDriver:
    """Chases a scripted target with unit-capped steps; test scaffolding."""

    def __init__(self, targets, horizon, noise=NoiseModel(), v=1.0, region=FREE):
        self.targets = targets
        self.horizon = horizon
        self.noise = noise
        self.start = (0.0, 0.0)
        self.region = region
        self.v = v

    def plan(self, t, x_hat, x_prev, mode):
        ti = min(t + 1 if mode == "lookahead" else t, self.horizon) - 1
        target = self.targets[ti]
        pull = sub(target, x_hat)
        n = norm(pull)
        capped = pull if n <= self.v else (self.v / n * pull[0], self.v / n * pull[1])

        def gamma(grad_tilde, gbar):
            return 1.01 * max(gbar / self.v, 1.0)

        def slack(a, b):
            return dist(a, b) - self.v

        return SlotPlan(grad_true=capped, grad_observed=capped, gamma=gamma, slack=slack)


class TestRunEpisode:
    def test_single_slot_episode(self):
        driver = _ChaserDriver([(5.0, 5.0)], horizon=1)
        traj, records = run_episode(driver)
        assert traj == [(0.0, 0.0)]
        assert records == []

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

    def test_infeasible_policy_surfaces_slot(self):
        class BadGamma(_ChaserDriver):
            def plan(self, t, x_hat, x_prev, mode):
                plan = super().plan(t, x_hat, x_prev, mode)
                if t == 3:
                    def gamma(grad_tilde, gbar):
                        raise EmptyStepInterval(1.0, 0.5, 1.0)

                    plan.gamma = gamma
                return plan

        with pytest.raises(InfeasibleStepSize) as err:
            run_episode(BadGamma([(9.0, 9.0)] * 8, 8))
        assert err.value.slot == 3

    def test_cap_violating_step_aborts(self):
        class Cheater(_ChaserDriver):
            def plan(self, t, x_hat, x_prev, mode):
                plan = super().plan(t, x_hat, x_prev, mode)
                plan.gamma = lambda grad_tilde, gbar: 0.1  # step far beyond the cap
                return plan

        with pytest.raises(InfeasibleStepSize):
            run_episode(Cheater([(50.0, 0.0)] * 5, 5))

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
