import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trajsim import objectives as obj
from trajsim.engine import NoiseModel
from trajsim.errors import InfeasibleStepSize, SchemaError
from trajsim.field import FieldPerturbation, UniformSpec, synth_field
from trajsim.geom import dist, dot, left_sum, norm, sub
from trajsim.metrics import _violation, solve_offline
from trajsim.objectives import CommuteUtilities
from trajsim.scenarios import (
    PathSpec,
    ScenarioConfig,
    apply_sweep_value,
    make_adversary_policy,
    run_adversary,
    run_scenario,
    sweep,
)
from trajsim.sets import Box2D

STILL = synth_field(UniformSpec(0.0, 0.0), (-100.0, 300.0), (-100.0, 300.0))


def d2d_config(**overrides):
    base = dict(
        kind="d2d",
        start=(0.0, 0.0),
        goal=PathSpec((12.0, 0.0), (12.0, 0.0)),
        peer=PathSpec((0.0, 3.0), (12.0, 3.0), speed_mps=1.0),
        delta=3,
        v_max_mps=1.0,
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def ocean_config(**overrides):
    base = dict(
        kind="ocean",
        start=(10.0, 10.0),
        goal=PathSpec((40.0, 40.0), (40.0, 40.0)),
        delta=6,
        v_max_mps=1.0,
        lambda_strategy="direction_dependent",
        beta=0.4,
        ocean_field=STILL,
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfig:
    def test_negative_delta_rejected(self):
        with pytest.raises(SchemaError):
            d2d_config(delta=-1)

    def test_horizon_resolution(self):
        cfg = d2d_config()  # distance 12 at 1 m/slot
        assert cfg.t_eta == 12
        assert cfg.horizon == 15

    def test_exact_multiple_not_pushed_up(self):
        cfg = d2d_config(goal=PathSpec((10.0, 0.0), (10.0, 0.0)), v_max_mps=2.0)
        assert cfg.t_eta == 5

    def test_fast_goal_warns(self):
        with pytest.warns(UserWarning):
            d2d_config(goal=PathSpec((12.0, 0.0), (0.0, 0.0), speed_mps=0.9))

    def test_missing_peer_rejected(self):
        with pytest.raises(SchemaError):
            ScenarioConfig(kind="d2d", goal=PathSpec((1.0, 0.0), (1.0, 0.0)))

    def test_library_margin_below_one_is_schema_error(self):
        # before the check, this episode ran and failed at slot 1 with
        # InfeasibleStepSize: a rate below the bound leaves the step cap
        with pytest.raises(SchemaError, match="margin"):
            run_scenario(
                ScenarioConfig(
                    kind="d2d",
                    start=(0, 0),
                    goal=PathSpec((10, 0), (10, 0)),
                    peer=PathSpec((0, 2), (10, 2), 1.0),
                    margin=0.5,
                )
            )

    @pytest.mark.parametrize("margin", [0.999, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("config", [d2d_config, ocean_config])
    def test_margin_must_be_finite_and_at_least_one(self, config, margin):
        with pytest.raises(SchemaError, match="margin"):
            config(margin=margin)

    @pytest.mark.parametrize("config", [d2d_config, ocean_config])
    def test_margin_of_one_is_accepted(self, config):
        assert config(margin=1.0).margin == 1.0

    # values the config parser rejects; before the library-side checks each
    # failed late (a bare ValueError or TypeError, InfeasibleStepSize, or an
    # error raised only after the episode) or ran to NaN or silently
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("mu", 0.0),
            ("alpha_min", 0.0),
            ("utility_kind", "cubic"),
            ("bandwidth_hz", -1),
            ("delta", 2.5),
            ("v_max_mps", math.nan),
            ("slot_duration_s", math.inf),
            ("drag_coefficient", math.nan),
            ("beta", -1),
            ("peer_noise_std_m", -1),
        ],
    )
    @pytest.mark.parametrize("kind", ["d2d", "ocean"])
    def test_library_config_applies_the_parser_rules(self, kind, field, value):
        base = dict(kind=kind, start=(0, 0), goal=PathSpec((10, 0), (10, 0)))
        if kind == "d2d":
            base["peer"] = PathSpec((0, 2), (10, 2), 1.0)
        else:
            base["ocean_field"] = STILL
        with pytest.raises(SchemaError) as err:
            run_scenario(ScenarioConfig(**base, **{field: value}))
        assert err.value.path == field

    @pytest.mark.parametrize(
        ("field", "value"),
        [("lambda_strategy", "decreasing"), ("ocean_field", None), ("start", (math.nan, 0.0))],
    )
    def test_voyage_config_checks_its_strategy_field_and_start(self, field, value):
        with pytest.raises(SchemaError) as err:
            ocean_config(**{field: value})
        assert err.value.path == field

    def test_bad_sweep_value_stays_a_row_error(self):
        rows = sweep(d2d_config(), "noise_sigma", [0.5, -1.0], benchmark=False)
        assert rows[0].error is None and rows[0].report is not None
        assert rows[1].report is None and "peer_noise_std_m" in rows[1].error


class TestPathSpec:
    def test_static(self):
        p = PathSpec((1.0, 2.0), (9.0, 9.0), 0.0)
        assert p.at(50, 1.0) == (1.0, 2.0)

    def test_walk_and_clamp(self):
        p = PathSpec((0.0, 0.0), (10.0, 0.0), speed_mps=2.0)
        assert p.at(1, 1.0) == (0.0, 0.0)
        assert p.at(3, 1.0) == (4.0, 0.0)
        assert p.at(100, 1.0) == (10.0, 0.0)


class TestRunD2D:
    def test_starts_exactly_at_s(self):
        rep = run_scenario(d2d_config(), benchmark=False)
        assert rep.trajectory[0] == (0.0, 0.0)

    def test_every_step_within_cap(self):
        cfg = d2d_config(
            peer_noise_std_m=1.0,
            gradient_noise=NoiseModel(kind="gaussian_decaying", eps0=0.3, decay_q=0.5, seed=2),
        )
        rep = run_scenario(cfg, benchmark=False)
        v = cfg.v_slot
        for a, b in zip(rep.trajectory, rep.trajectory[1:]):
            assert dist(a, b) <= v + 1e-9
        assert all(r.constraint_slack <= 1e-9 for r in rep.records)

    def test_series_lengths_consistent(self):
        rep = run_scenario(d2d_config(), benchmark=False)
        T = rep.horizon
        assert len(rep.goals) == T
        assert len(rep.utilities) == T
        assert len(rep.rate_series) == T
        assert len(rep.records) == T - 1
        assert len(rep.lambdas) == T - 1
        assert len(rep.energy_steps) == T - 1

    def test_determinism(self):
        cfg = d2d_config(
            peer_noise_std_m=0.7,
            gradient_noise=NoiseModel(kind="gaussian_decaying", eps0=0.2, decay_q=1.0, seed=8),
        )
        a = run_scenario(cfg, benchmark=False)
        b = run_scenario(cfg, benchmark=False)
        assert a.trajectory == b.trajectory

    def test_peer_noise_shows_up_in_realized_error(self):
        noisy = run_scenario(d2d_config(peer_noise_std_m=2.0), benchmark=False)
        clean = run_scenario(d2d_config(), benchmark=False)
        assert sum(r.eps_sq_realized for r in noisy.records) > 0.0
        assert sum(r.eps_sq_realized for r in clean.records) == 0.0

    def test_regret_report_is_sane(self):
        rep = run_scenario(d2d_config())
        rr = rep.regret_report
        assert rr is not None
        assert rr.regret >= -1e-6
        assert rr.s_t >= 0 and rr.g_t >= 0 and rr.e_t_realized >= 0
        assert rr.final_goal_distance == dist(rep.trajectory[-1], rep.goals[-1])

    def test_knee_region_with_shared_start(self):
        # both users leave one point for opposite destinations: they travel
        # together, then split and head for their own goals
        cfg = ScenarioConfig(
            kind="d2d",
            start=(80.0, 80.0),
            goal=PathSpec((-400.0, 480.0), (-400.0, 480.0)),
            peer=PathSpec((80.0, 80.0), (600.0, 600.0), speed_mps=1.0),
            delta=2,
            v_max_mps=1.0,
            slot_duration_s=25.0,
            mu=1e-3,
            seed=0,
        )
        rep = run_scenario(cfg, benchmark=False)
        v = cfg.v_slot
        peers = rep.goals  # placeholder to keep names local
        peers = [cfg.peer.at(t, cfg.slot_duration_s) for t in range(1, rep.horizon + 1)]
        near = [dist(x, y) <= 2.0 * v for x, y in zip(rep.trajectory, peers)]
        assert near[0] and near[1]  # shared initial segment
        shared = 0
        while shared < len(near) and near[shared]:
            shared += 1
        assert 2 <= shared < rep.horizon  # it does split eventually
        goal_dists = [dist(x, rep.goals[-1]) for x in rep.trajectory]
        tail = goal_dists[shared:]
        assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))  # monotone approach

    def test_huber_utility_kind_runs(self):
        rep = run_scenario(d2d_config(utility_kind="huber", mu=0.3))
        assert rep.regret_report.regret >= -1e-6


def _huber_probe_points(leads: np.ndarray, v: float, rng) -> list[np.ndarray]:
    """Random points, points on the leads, and points exactly on the v cap."""
    T = len(leads)
    probes = [leads.copy()]
    for scale in (0.1, 1.0, 10.0, 1e3):
        probes.append(leads + rng.normal(0.0, scale * v, (T, 2)))
    # integer leads and v = 5: pull (3, 4) has norm exactly 5
    probes.append(leads - np.array([3.0, 4.0]))
    probes.append(leads + np.array([4.0, -3.0]))
    return probes


class _PerSlotHuber:
    """A Huber commute family evaluated slot by slot through the scalar forms.

    It is only ever solved alone, so it is its own stack of one: the solver
    hands it ``(1, T, 2)`` waypoints.  The conjugate pieces that tighten the
    gap are the family's own, which broadcast over the row axis.
    """

    total_scale = 1.0
    smoothness = 1.0

    def __init__(self, family):
        self.family = family
        self.horizon = family.horizon
        self.values = family.values
        self.curvature = family.curvature
        self.fenchel_young = family.fenchel_young
        self.stack_key = ("per-slot", id(self))

    def stack(self, families, tmax):
        assert families == [self] and tmax == self.horizon
        return self

    def slot_terms(self, x):
        return np.array([u(p) for u, p in zip(self.values, x[0].tolist())])

    def total(self, points):
        return sum(u(p) for u, p in zip(self.values, points))

    def gradient_array(self, x):
        if x.ndim == 3:
            return self.gradient_array(x[0])[None]
        f = self.family
        return np.array(
            [obj.d2d_gradient(p, e, f.v, f.mu) for p, e in zip(x.tolist(), f.leads.tolist())]
        )


class TestCommuteBatchForms:
    V = 5.0

    def huber(self, mu=0.3, T=40, seed=0):
        rng = np.random.default_rng(seed)
        leads = rng.integers(-50, 50, (T, 2)).astype(float)
        return leads, CommuteUtilities(leads, self.V, mu, "huber")

    @pytest.mark.parametrize("mu", [1e-3, 0.3, 1.0])
    def test_huber_batch_gradient_matches_scalar_gradient(self, mu):
        # the same formula as d2d_gradient; np.hypot and math.hypot may
        # differ in the last bit, so the two agree to rounding
        leads, seq = self.huber(mu)
        rng = np.random.default_rng(1)
        on_cap = 0
        for x in _huber_probe_points(leads, self.V, rng):
            on_cap += int(np.sum(np.hypot(*(leads - x).T) == self.V))
            per_slot = [
                obj.d2d_gradient(p, e, self.V, mu) for p, e in zip(x.tolist(), leads.tolist())
            ]
            np.testing.assert_allclose(
                seq.gradient_array(x), np.asarray(per_slot), rtol=4 * np.finfo(float).eps, atol=0.0
            )
        assert on_cap >= 2 * len(leads)

    @pytest.mark.parametrize("mu", [1e-3, 0.3, 1.0])
    def test_huber_batch_value_matches_per_slot_sum(self, mu):
        leads, seq = self.huber(mu)
        rng = np.random.default_rng(2)
        for x in _huber_probe_points(leads, self.V, rng):
            per_slot = sum(u(p) for u, p in zip(seq.values, map(tuple, x.tolist())))
            assert seq.total(x) == pytest.approx(per_slot, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("kind", ["squared", "huber"])
    def test_library_sequences_carry_batch_forms(self, kind):
        rep = run_scenario(d2d_config(utility_kind=kind, mu=0.3), benchmark=False)
        us = rep.problem.utilities
        assert isinstance(us, CommuteUtilities) and us.kind == kind
        assert us.leads.shape == (rep.horizon, 2)

    def test_huber_solve_matches_per_slot_path(self):
        cfg = d2d_config(
            utility_kind="huber",
            mu=0.05,
            peer=PathSpec((6.0, 4.0), (0.0, -4.0), speed_mps=2.0),
            peer_noise_std_m=0.5,
            delta=10,
        )
        rep = run_scenario(cfg, benchmark=False)
        problem = rep.problem
        per_slot = replace(problem, utilities=_PerSlotHuber(problem.utilities))
        fast = solve_offline(problem, x0=rep.trajectory)
        slow = solve_offline(per_slot, x0=rep.trajectory)
        assert fast.converged and slow.converged
        assert np.max(np.abs(np.subtract(fast.points, slow.points))) <= 1e-9
        assert fast.utility == pytest.approx(slow.utility, rel=1e-9)


class TestRunOcean:
    def test_still_water_goes_straight(self):
        cfg = ocean_config()
        rep = run_scenario(cfg, benchmark=False)
        # no currents: goal weight stays 1 and the march is the capped line
        assert all(l == 1.0 for l in rep.lambdas)
        heading = sub((40.0, 40.0), (10.0, 10.0))
        unit = (heading[0] / norm(heading), heading[1] / norm(heading))
        for a, b in zip(rep.trajectory[:-1], rep.trajectory[1:]):
            step = sub(b, a)
            if norm(step) < 1e-12:
                continue  # arrived and holding
            cross = step[0] * unit[1] - step[1] * unit[0]
            assert abs(cross) <= 1e-9
        assert rep.final_goal_distance <= cfg.v_slot

    def test_alpha_throttle_caps_steps(self):
        fld = synth_field(UniformSpec(0.25, -0.1), (-100.0, 300.0), (-100.0, 300.0))
        cfg = ocean_config(ocean_field=fld, lambda_strategy="increasing")
        rep = run_scenario(cfg, benchmark=False)
        for rec, alpha, vo in zip(rep.records, rep.alphas, (r for r in rep.records)):
            assert rec.constraint_slack <= 1e-9

    def test_strong_current_raises_infeasible(self):
        fld = synth_field(UniformSpec(0.9, 0.0), (-100.0, 300.0), (-100.0, 300.0))
        cfg = ocean_config(ocean_field=fld, beta=2.0, delta=30)
        with pytest.raises(InfeasibleStepSize) as err:
            run_scenario(cfg, benchmark=False)
        assert err.value.slot >= 1

    def test_moving_goal_tracked(self):
        cfg = ocean_config(
            goal=PathSpec((30.0, 30.0), (30.0, 45.0), speed_mps=0.2),
            delta=20,
        )
        rep = run_scenario(cfg, benchmark=False)
        assert rep.goals[0] != rep.goals[-1]
        assert rep.final_goal_distance <= 2.0 * cfg.v_slot

    def test_perturbation_feeds_realized_error(self):
        fld = synth_field(UniformSpec(0.2, 0.2), (-100.0, 300.0), (-100.0, 300.0))
        cfg = ocean_config(ocean_field=fld, perturbation=FieldPerturbation(0.1, seed=4))
        rep = run_scenario(cfg, benchmark=False)
        assert sum(r.eps_sq_realized for r in rep.records) > 0.0
        # physical slack still measured against the true field
        assert all(r.constraint_slack <= 1e-9 for r in rep.records)

    def test_energy_and_report(self):
        fld = synth_field(UniformSpec(0.15, 0.0), (-100.0, 300.0), (-100.0, 300.0))
        rep = run_scenario(ocean_config(ocean_field=fld))
        assert rep.energy_total >= 0.0
        rr = rep.regret_report
        assert rr.regret >= -1e-6
        assert rr.energy_online == rep.energy_total


class TestOceanWeights:
    """The driver's one-pass weights against the stepwise scalar forms, bit for bit."""

    @pytest.mark.parametrize("strategy", ["direction_dependent", "increasing"])
    def test_weights_match_objectives_bitwise(self, strategy):
        from trajsim.scenarios import _OceanDriver

        rng = np.random.default_rng(5)
        driver = _OceanDriver(ocean_config(lambda_strategy=strategy, delta=17, beta=0.7))
        # currents of up to about 2 m/slot, so eta also reaches its clamp at 1
        T, vmax = driver.horizon, 0.8
        driver.v_o_max_slot = vmax
        goal = driver.goals[0]
        points = [tuple(rng.uniform(0.0, 60.0, 2)) for _ in range(200)] + [goal]
        currents = [tuple(rng.normal(0.0, 0.5, 2)) for _ in range(200)] + [(0.0, 0.0), (2.0, -1.0)]
        for t, (x, vo) in enumerate(zip(points * 2, currents * 2), start=1):
            t = min(t, T)
            # current_strength_angle as it was written with geom helpers
            eta, heading = min(norm(vo) / vmax, 1.0), sub(goal, x)
            theta = math.pi
            if norm(heading) != 0.0 and norm(vo) != 0.0:
                c = dot(heading, vo) / (norm(heading) * norm(vo))
                theta = math.acos(min(1.0, max(-1.0, c)))
            assert obj.current_strength_angle(goal, x, vo, vmax) == (eta, theta)
            if strategy == "increasing":
                lam = obj.lambda_increasing(t, T)
            else:
                lam = obj.directional_weight(eta, theta)
            alpha = obj.alpha_schedule(0.7, 17, T, eta, theta)
            assert repr(driver.weights(t, x, vo)) == repr((lam, alpha))


class TestAdversary:
    def test_zero_policy_exact_value(self):
        assert run_adversary(100, 1.0, "zero") == 50.0

    def test_lower_bound_any_policy(self):
        for policy in ("ioga", "zero", "random"):
            assert run_adversary(100, 1.0, policy, seed=9) >= 50.0 - 1e-9

    def test_shrinking_width(self):
        T = 10_000
        w = T**-0.5
        assert run_adversary(T, w, "zero") >= 0.5 - 1e-9

    def test_custom_policy_clamped(self):
        def wild(t, xs, ws):
            return 100.0  # clamped to width 1

        value = run_adversary(10, 1.0, wild)
        assert value == pytest.approx(0.5 * 10 * 4.0)  # always at +1 vs w=-1

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchemaError):
            make_adversary_policy("greedy", 1.0)


class TestSweep:
    def test_empty_values_rejected(self):
        with pytest.raises(SchemaError):
            sweep(d2d_config(), "delta", [])

    def test_single_value_matches_direct_run(self):
        cfg = d2d_config()
        row = sweep(cfg, "delta", [3], benchmark=False)[0]
        direct = run_scenario(apply_sweep_value(cfg, "delta", 3), benchmark=False)
        assert row.report.trajectory == direct.trajectory

    def test_row_removal_leaves_other_rows_unchanged(self):
        cfg = d2d_config(peer_noise_std_m=1.0)
        full = sweep(cfg, "delta", [0, 1, 2, 4], benchmark=False)
        partial = sweep(cfg, "delta", [0, 2, 4], benchmark=False)
        full_by_value = {row.value: row.report.trajectory for row in full}
        for row in partial:
            assert row.report.trajectory == full_by_value[row.value]

    def test_error_rows_are_isolated(self):
        fld = synth_field(UniformSpec(0.45, 0.0), (-100.0, 300.0), (-100.0, 300.0))
        cfg = ocean_config(ocean_field=fld, beta=0.6)
        # large delta shrinks the throttle below the current ratio
        rows = sweep(cfg, "delta", [0, 200], benchmark=False)
        assert rows[0].report is not None and rows[0].error is None
        assert rows[1].report is None and "alpha" in rows[1].error

    def test_benchmarked_rows_match_direct_runs(self):
        fld = synth_field(UniformSpec(0.45, 0.0), (-100.0, 300.0), (-100.0, 300.0))
        cfg = ocean_config(ocean_field=fld, beta=0.6)
        rows = sweep(cfg, "delta", [0, 3, 200, 7])
        assert rows[2].report is None and "alpha" in rows[2].error
        for row in rows[:2] + rows[3:]:
            direct = run_scenario(apply_sweep_value(cfg, "delta", row.value))
            assert row.error is None
            assert row.report.regret_report == direct.regret_report

    def test_benchmark_failures_are_isolated(self, monkeypatch):
        import trajsim.scenarios as scenarios

        cfg = d2d_config(peer_noise_std_m=0.5)
        expected = {row.value: row.report.regret_report for row in sweep(cfg, "delta", [0, 2, 5])}
        build = scenarios.build_regret_report

        def build_or_fail(report, *args, **kwargs):
            if report.horizon == apply_sweep_value(cfg, "delta", 2).horizon:
                raise RuntimeError("benchmark broke")
            return build(report, *args, **kwargs)

        def batch_fails(*args, **kwargs):
            raise RuntimeError("batch broke")

        monkeypatch.setattr(scenarios, "build_regret_report", build_or_fail)
        monkeypatch.setattr(scenarios, "solve_offline_batch", batch_fails)
        rows = sweep(cfg, "delta", [0, 2, 5])
        assert rows[1].report is None and rows[1].error == "benchmark broke"
        # the other rows fall back to solving alone, with the same results
        for row in (rows[0], rows[2]):
            assert row.report.regret_report == expected[row.value]

    def test_noise_sigma_param_maps_by_kind(self):
        ocean = apply_sweep_value(ocean_config(), "noise_sigma", 0.05)
        assert ocean.perturbation.sigma_fraction == 0.05
        commute = apply_sweep_value(d2d_config(), "noise_sigma", 1.5)
        assert commute.peer_noise_std_m == 1.5

    def test_horizon_param(self):
        cfg = apply_sweep_value(d2d_config(), "horizon", 20)
        assert cfg.horizon == 20
        with pytest.raises(SchemaError):
            apply_sweep_value(d2d_config(), "horizon", 5)  # below straight-line slots

    def test_forecast_noise_degrades_gracefully(self):
        fld = synth_field(UniformSpec(0.2, 0.1), (-100.0, 300.0), (-100.0, 300.0))
        cfg = ocean_config(ocean_field=fld, beta=0.3, delta=10)
        rows = sweep(cfg, "noise_sigma", [0.0, 0.05, 0.10], benchmark=False)
        energies = [row.report.energy_total for row in rows]
        assert all(math.isfinite(e) and e >= 0 for e in energies)
        assert abs(energies[2] - energies[0]) <= 0.25 * energies[0]


class TestLookahead:
    def test_dominates_when_gradient_variation_rules(self):
        # the peer outruns the agent, so utilities drift fast while the
        # capped benchmark drifts slowly: previews should pay off on average
        regs = {"standard": [], "lookahead": []}
        sample = None
        for seed in range(20):
            cfg = ScenarioConfig(
                kind="d2d",
                start=(0.0, 0.0),
                goal=PathSpec((40.0, 0.0), (40.0, 0.0)),
                peer=PathSpec((0.0, 5.0), (40.0, 5.0), speed_mps=2.5),
                delta=6,
                v_max_mps=1.0,
                utility_kind="squared",
                mu=1.0,
                alpha_min=0.01,
                gradient_noise=NoiseModel(
                    kind="gaussian_decaying", eps0=0.2, decay_q=0.5, seed=seed
                ),
                seed=seed,
            )
            for mode in ("standard", "lookahead"):
                regs[mode].append(run_scenario(cfg, mode=mode).regret_report.regret)
            sample = cfg
        rr = run_scenario(sample).regret_report
        assert rr.g_t > max(rr.s_t, rr.e_t_realized)
        assert np.mean(regs["lookahead"]) <= np.mean(regs["standard"])


class TestOfflineCertificate:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["squared", "huber", "ocean"]),
        delta=st.integers(0, 10),
        seed=st.integers(0, 2**31 - 1),
        eps0=st.floats(0.0, 1.0),
        top=st.one_of(st.none(), st.floats(0.05, 1.0)),
    )
    def test_offline_total_is_within_its_gap_of_the_online_total(
        self, kind, delta, seed, eps0, top
    ):
        # the online path is feasible, so U(online) <= U* <= U(offline) + gap;
        # a box with a low top cuts off the peer's side or the goal's
        noise = NoiseModel("gaussian_decaying", eps0, 1.0, seed)
        if kind == "ocean":
            box = None if top is None else Box2D((5.0, 5.0), (45.0, 10.0 + 6.0 * top))
            current = UniformSpec(0.1 * math.cos(seed), 0.1 * math.sin(seed))
            cfg = ocean_config(
                delta=delta, seed=seed, gradient_noise=noise, feasible_box=box,
                ocean_field=synth_field(current, (-100.0, 300.0), (-100.0, 300.0)),
            )
        else:
            box = None if top is None else Box2D((-1.0, -1.0), (13.0, top))
            cfg = d2d_config(
                delta=delta, seed=seed, gradient_noise=noise, feasible_box=box,
                utility_kind=kind, peer_noise_std_m=0.5,
            )
        try:
            rr = run_scenario(cfg).regret_report
        except InfeasibleStepSize:
            assume(False)  # a noise draw left some slot without a feasible step
        assert math.isfinite(rr.offline_gap) and rr.offline_gap >= 0.0
        if rr.solver_converged:
            online = left_sum(rr.online_utilities)
            offline = left_sum(rr.offline_utilities)
            assert offline >= online - rr.offline_gap - 1e-9 * (1.0 + abs(online))

    def test_long_huber_commute_is_certified_within_600_iterations(self):
        # the bench's T = 128 Huber commute: the peer walks at twice the cap
        # and crosses back.  The Frank-Wolfe gap alone stops it at about
        # 1,000 iterations, about 300x looser than the true shortfall there
        d = 55.0 / math.sqrt(2.0)
        cfg = d2d_config(
            goal=PathSpec((d, d), (d, d)),
            peer=PathSpec((23.04, -8.96), (44.8, 21.76), speed_mps=2.0),
            peer_noise_std_m=1.0,
            delta=73,
            utility_kind="huber",
            mu=0.001,
            gradient_noise=NoiseModel("gaussian_decaying", 0.1, 1.0, 2),
            seed=1,
        )
        report = run_scenario(cfg, benchmark=False)
        assert report.problem.horizon == 128
        sol = solve_offline(report.problem, x0=report.trajectory)
        assert sol.converged and sol.iterations <= 600
        tight = solve_offline(report.problem, x0=report.trajectory, tol=1e-9)
        assert tight.converged
        assert tight.utility - sol.utility <= sol.gap + 1e-9 * (1.0 + abs(tight.utility))

    def test_long_commute_boxed_to_its_online_path_is_certified(self):
        # a T = 128 commute whose peer crosses its path, solved in the bounding
        # box of its own online path: the offline optimum presses on the box
        d = 55.0 / math.sqrt(2.0)
        cfg = d2d_config(
            goal=PathSpec((d, d), (d, d)),
            peer=PathSpec((23.04, -8.96), (44.8, 21.76), speed_mps=2.0),
            peer_noise_std_m=1.0,
            delta=73,
            gradient_noise=NoiseModel("gaussian_decaying", 0.1, 1.0, 2),
            seed=1,
        )
        report = run_scenario(cfg, benchmark=False)
        path = np.array(report.trajectory)
        box = Box2D(tuple(path.min(axis=0).tolist()), tuple(path.max(axis=0).tolist()))
        problem = replace(report.problem, region=box)
        assert problem.horizon == 128
        free = solve_offline(report.problem, x0=report.trajectory)
        cons = (problem.start, problem.centers, problem.radii, box)
        assert _violation(np.array(free.points), *cons)[0] > 1e-6
        sol = solve_offline(problem, x0=report.trajectory)
        assert sol.converged and sol.max_violation <= 1e-9
        assert math.isfinite(sol.gap) and sol.gap >= 0.0
