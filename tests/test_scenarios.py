import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from episode_reference import ReferenceCommute, outcome, run_episode_reference
from trajsim import metrics
from trajsim import objectives as obj
from trajsim.engine import NoiseModel, run_episode
from trajsim.errors import InfeasibleStepSize, SchemaError
from trajsim.field import FieldPerturbation, GyreSpec, UniformSpec, sample_velocity, synth_field
from trajsim.geom import as_array, dist, dot, left_sum, norm, norm_sq, sub
from trajsim.metrics import _violation, energy_cost, solve_offline
from trajsim.objectives import CommuteUtilities
from trajsim.scenarios import (
    ARRIVAL_TOL_M,
    MAX_ADVERSARY_T,
    MAX_ADVERSARY_W,
    AdversaryParams,
    PathSpec,
    ScenarioConfig,
    _D2DDriver,
    apply_sweep_value,
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


def _bench_commute(utility: str, T: int):
    """The bench's commute of horizon ``T``, unrotated and unshifted, run online.

    The peer walks at twice the cap and crosses back.
    """
    straight = round(0.43 * T)
    d = straight / math.sqrt(2.0)
    cfg = d2d_config(
        goal=PathSpec((d, d), (d, d)),
        peer=PathSpec((0.18 * T, -0.07 * T), (0.35 * T, 0.17 * T), speed_mps=2.0),
        peer_noise_std_m=1.0,
        delta=T - straight,
        utility_kind=utility,
        mu=0.001,
        gradient_noise=NoiseModel("gaussian_decaying", 0.1, 1.0, 2),
        seed=1,
    )
    report = run_scenario(cfg, benchmark=False)
    assert report.problem.horizon == T
    return report


def _long_huber_commute():
    """The bench's T = 128 Huber commute, run online."""
    return _bench_commute("huber", 128)


def _without_newton_finish(monkeypatch):
    """Turn the offline ascent's Newton finish off: every attempt fails at once."""
    monkeypatch.setattr(metrics._Lockstep, "finish", lambda self, j, z, total, tol: False)


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

    def test_box_without_the_start_is_rejected_when_built(self):
        # before the check moved to the config, this episode failed at slot 1
        # with InfeasibleStepSize: the first step leaves its cap
        box = Box2D((1.0, -5.0), (20.0, 5.0))
        with pytest.raises(SchemaError) as err:
            d2d_config(feasible_box=box)
        assert err.value.path == "feasible_box"
        assert d2d_config(feasible_box=Box2D((0.0, 0.0), (20.0, 5.0))).feasible_box.lo == (0.0, 0.0)

    @pytest.mark.parametrize("seed", [2.5, 3.0, True, None])
    def test_every_seed_is_an_integer(self, seed):
        cases = [
            (lambda: replace(d2d_config(), seed=seed), "seed"),
            (lambda: NoiseModel("gaussian_decaying", 0.1, 1.0, seed), "gradient_noise.seed"),
            (lambda: FieldPerturbation(0.1, seed), "perturbation.seed"),
        ]
        for build, path in cases:
            with pytest.raises(SchemaError) as err:
                build()
            assert err.value.path == path

    @pytest.mark.parametrize(
        ("field", "value"),
        [("eps0", -1.0), ("eps0", math.nan), ("eps0", math.inf), ("decay_q", -0.5), ("decay_q", math.nan)],
    )
    def test_noise_scale_and_decay_are_finite_and_nonnegative(self, field, value):
        with pytest.raises(SchemaError) as err:
            NoiseModel("gaussian_decaying", **{field: value})
        assert err.value.path == f"gradient_noise.{field}"

    def test_an_int_beyond_the_float_range_is_a_schema_error(self):
        # float(10**400) raises OverflowError, which used to escape the config
        for field, value in [("v_max_mps", 10**400), ("start", (10**400, 0.0))]:
            with pytest.raises(SchemaError) as err:
                d2d_config(**{field: value})
            assert err.value.path == field

    def test_perturbation_seed_is_nonnegative(self):
        # numpy's generator takes no negative seed; it used to raise ValueError
        assert FieldPerturbation(0.1, 0).seed == 0
        with pytest.raises(SchemaError) as err:
            FieldPerturbation(0.1, -1)
        assert err.value.path == "perturbation.seed"

    def test_derived_seeds_wrap_mod_2_64(self):
        assert d2d_config(seed=5).derived_seed(3_000_003) == 3_000_008
        assert d2d_config(seed=-5_000_000).derived_seed(3_000_003) == 2**64 - 1_999_997

    def test_negative_master_seed_derives_a_field_seed(self):
        # the derived field seed was -1,999,997, which numpy's generator rejected
        fld = synth_field(UniformSpec(0.1, 0.05), (-100.0, 300.0), (-100.0, 300.0))
        cfg = ocean_config(ocean_field=fld, perturbation=FieldPerturbation(0.1), seed=-5_000_000)
        first = run_scenario(cfg, benchmark=False).trajectory
        assert run_scenario(cfg, benchmark=False).trajectory == first

    def test_perturbation_fraction_names_its_field(self):
        for value in (-0.1, 1.5, math.nan):
            with pytest.raises(SchemaError) as err:
                FieldPerturbation(value)
            assert err.value.path == "perturbation.sigma_fraction"

    @pytest.mark.parametrize("value", [-1.0, 2.5])
    def test_bad_sweep_delta_is_named_by_its_owner(self, value):
        with pytest.raises(SchemaError) as err:
            apply_sweep_value(d2d_config(), "delta", value)
        assert err.value.path == "delta"

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

    @pytest.mark.parametrize(
        "spec",
        [
            PathSpec((0.3, 3.0), (12.1, -3.7), speed_mps=1.3),  # clamps at its end
            PathSpec((0.3, 3.0), (12.1, -3.7), speed_mps=0.0),
            PathSpec((1.5, -2.0), (1.5, -2.0), speed_mps=0.7),
            PathSpec((-0.0, 5.0), (-0.0, -7.3), speed_mps=0.9),
            PathSpec((2.0, -0.0), (-0.0, 0.0), speed_mps=0.25),
            PathSpec((0.0, 1.0), (3.0, -1.0), speed_mps=1e308),  # the walked length overflows
        ],
        ids=[
            "clamped-walk", "zero-speed", "equal-endpoints", "minus-zero-start", "minus-zero-end",
            "overflowing-walk",
        ],
    )
    @pytest.mark.parametrize("tau", [1.0, 0.3])
    def test_track_equals_at_bit_for_bit(self, spec, tau):
        want = [spec.at(t, tau) for t in range(1, 61)]
        got = spec.track(60, tau)
        assert _reprs(got) == _reprs(want)
        assert all(type(c) is float for p in got for c in p)

    def test_static_track_repeats_the_start_object(self):
        spec = PathSpec((1.0, 2.0), (1.0, 2.0))
        assert all(p is spec.start for p in spec.track(5, 1.0))
        # the trace writer's goal-cell cache tests goals by identity
        for report in (run_scenario(d2d_config(), benchmark=False),
                       run_scenario(ocean_config(), benchmark=False)):
            assert all(goal is report.goals[0] for goal in report.goals)


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

    @pytest.mark.parametrize("T", [1, 2, 2048])
    def test_regret_report_reads_the_point_list_bits(self, T):
        """S_T and the offline utilities, read from the solution as an array,
        are the point-list forms' bits, -0.0 coordinates included."""
        if T == 2048:
            report = _bench_commute("squared", T)
        else:
            report = run_scenario(
                d2d_config(goal=PathSpec((0.0, 0.0), (0.0, 0.0)), peer=PathSpec((0.0, 3.0), (0.0, 3.0)), delta=T - 1),
                benchmark=False,
            )
        assert report.problem.horizon == T
        rng = np.random.default_rng(T)
        x = rng.normal(0, 1, (T, 2)) * 10.0 ** rng.integers(-3, 4, (T, 2))
        x[rng.random((T, 2)) < 0.3] = -0.0
        x[0] = (-0.0, -0.0)
        pts = [(float(a), float(b)) for a, b in x]
        sol = replace(solve_offline(report.problem, x0=report.trajectory), points=pts)
        rr = metrics.build_regret_report(report, sol)
        us = report.problem.utilities
        assert repr(rr.offline_utilities) == repr(tuple(us.evaluate(pts)))
        s_t = left_sum((norm_sq(sub(b, a)) for a, b in zip(pts, pts[1:])), 0.0)
        assert repr(rr.s_t) == repr(s_t)

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
        self.stack_key = ("per-slot", id(self))

    def stack(self, families, tmax):
        assert families == [self] and tmax == self.horizon
        return self

    def slot_terms(self, x, out=None):
        return np.array([u(p) for u, p in zip(self.values, x[0].tolist())])

    def fenchel_young(self, x, grad, delta, terms, out=None):
        # the terms a solver holds are the scalar values, not the family's own
        return self.family.fenchel_young(x, grad, delta, self.family.slot_terms(x), out=out)

    def total(self, points):
        return sum(u(p) for u, p in zip(self.values, points))

    def gradient_array(self, x, out=None):
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

    # a drag of 1e308 overflows some energies to inf, as quietly as float arithmetic does
    @pytest.mark.parametrize("drag, tau", [(1.0, 2.0), (1e308, 10.0)])
    def test_energy_steps_are_the_per_step_formula(self, drag, tau):
        fld = synth_field(UniformSpec(0.25, -0.1), (-100.0, 300.0), (-100.0, 300.0))
        rep = run_scenario(
            ocean_config(ocean_field=fld, drag_coefficient=drag, slot_duration_s=tau),
            benchmark=False,
        )
        traj, want = rep.trajectory, []
        for t, (a, b) in enumerate(zip(traj, traj[1:])):
            # the relative velocity against the true current met at a, in m/s
            u = sample_velocity(fld, a, t * tau)
            speed = math.hypot((b[0] - a[0]) / tau - u[0], (b[1] - a[1]) / tau - u[1])
            want.append(drag * speed**3 * tau)
        assert _reprs(rep.energy_steps) == _reprs(want)
        assert math.inf in want or drag == 1.0

    @pytest.mark.parametrize("tau", [10.0, 37.268])
    def test_energy_steps_are_energy_cost(self, tau):
        """Each step energy is the one-step ``energy_cost``, and the report's total is the whole."""
        axis = tuple(np.linspace(-100.0, 300.0, 21))
        gyre = synth_field(GyreSpec((25.0, 25.0), 0.3, 20.0), axis, axis)
        cfg = ocean_config(ocean_field=gyre, delta=30, slot_duration_s=tau, drag_coefficient=0.7)
        rep = run_scenario(cfg)
        traj, steps = rep.trajectory, rep.energy_steps
        assert len(steps) == len(traj) - 1 > 25
        want = [energy_cost(traj[i : i + 2], gyre, 0.7, tau) for i in range(len(steps))]
        assert _reprs(steps) == _reprs(want)
        assert repr(rep.regret_report.energy_online) == repr(energy_cost(traj, gyre, 0.7, tau))

    def test_alpha_throttle_caps_steps(self):
        fld = synth_field(UniformSpec(0.25, -0.1), (-100.0, 300.0), (-100.0, 300.0))
        cfg = ocean_config(ocean_field=fld, lambda_strategy="increasing")
        rep = run_scenario(cfg, benchmark=False)
        v = cfg.v_slot
        assert rep.problem.radii.tolist() == [alpha * v for alpha in rep.alphas]
        # each step's speed relative to the true current it met, from the path itself
        x = np.array(rep.trajectory)
        rel = x[1:] - x[:-1] - rep.problem.centers
        speeds = np.hypot(rel[:, 0], rel[:, 1]).tolist()
        assert len(speeds) == len(rep.alphas) > 0
        for t, (speed, alpha) in enumerate(zip(speeds, rep.alphas)):
            assert speed <= alpha * v + 1e-9, (t, speed, alpha * v)

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
    def test_weights_match_objectives_bitwise(self, strategy, monkeypatch):
        from trajsim import scenarios
        from trajsim.scenarios import _OceanDriver

        # plan samples the loop's current vo, in m/s, which is m/slot at 1 s slots
        monkeypatch.setattr(scenarios, "sample_velocity", lambda field, p, s: vo)
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
            # the paper's weight and throttle, written with geom helpers
            eta, heading = min(norm(vo) / vmax, 1.0), sub(goal, x)
            theta = math.pi
            if norm(heading) != 0.0 and norm(vo) != 0.0:
                c = dot(heading, vo) / (norm(heading) * norm(vo))
                theta = math.acos(min(1.0, max(-1.0, c)))
            half = math.cos(theta / 2.0)
            weights = (1.0 - eta * half * half, math.exp(-0.7 * (17 / T + eta * half)))
            assert repr(obj.voyage_weights(goal, x, vo, vmax, 0.7, 17, T)) == repr(weights)
            lam, alpha = weights
            if strategy == "increasing":
                lam = obj.lambda_increasing(t, T)
            driver.arrival = None  # the waypoint on the goal latches arrival
            driver.plan(t, x, "standard")
            assert repr((driver.lambdas[-1], driver.alphas[-1])) == repr((lam, alpha))

    @pytest.mark.parametrize("mode", ["standard", "lookahead"])
    @pytest.mark.parametrize("strategy", ["direction_dependent", "increasing"])
    def test_episode_runs_the_public_schedules(self, strategy, mode):
        """Each slot's weight and throttle are the paper's schedules at its record's waypoint."""
        axis = tuple(np.linspace(-100.0, 300.0, 21))
        gyre = synth_field(GyreSpec((25.0, 25.0), 0.3, 20.0), axis, axis)
        cfg = ocean_config(ocean_field=gyre, lambda_strategy=strategy, slot_duration_s=2.0)
        report = run_scenario(cfg, mode, benchmark=False)
        T, current = report.horizon, report.problem.utilities.current.tolist()
        v_o_max = max(gyre.v_o_max * cfg.slot_duration_s, 1e-12)
        lams, alphas = [], []
        for r in report.records:
            goal = report.goals[r.t - 1]
            assert dist(r.x_before, goal) > ARRIVAL_TOL_M  # arrival would pin the weight at 1
            vo = tuple(current[r.t - 1])
            lam, alpha = obj.voyage_weights(goal, r.x_before, vo, v_o_max, cfg.beta, cfg.delta, T)
            lams.append(obj.lambda_increasing(r.t, T) if strategy == "increasing" else lam)
            alphas.append(alpha)
        assert len(set(alphas)) > T // 2  # the current turns along the path
        assert repr(report.lambdas) == repr(lams)
        assert repr(report.alphas) == repr(alphas)


class TestAdversary:
    def test_zero_policy_exact_value(self):
        assert run_adversary(AdversaryParams(100, 1.0, "zero")) == 50.0

    def test_lower_bound_any_policy(self):
        for policy in ("ioga", "zero", "random"):
            assert run_adversary(AdversaryParams(100, 1.0, policy), seed=9) >= 50.0 - 1e-9

    def test_shrinking_width(self):
        T = 10_000
        w = T**-0.5
        assert run_adversary(AdversaryParams(T, w, "zero")) >= 0.5 - 1e-9

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchemaError) as err:
            AdversaryParams(policy="greedy")
        assert err.value.path == "adversary.policy"

    # repr of each regret as the earlier two-list game computed it; the loop keeps every bit
    @pytest.mark.parametrize(
        ("T", "W", "seed", "policy", "value"),
        [
            (100, 1.0, 7, "ioga", "198.5"),
            (100, 1.0, 7, "zero", "50.0"),
            (100, 1.0, 7, "random", "121.64946987031986"),
            (1000, 7.77, 0, "ioga", "120655.24065000123"),
            (1000, 7.77, 0, "zero", "30186.450000000306"),
            (1000, 7.77, 0, "random", "69939.27293013656"),
        ],
    )
    def test_game_values_are_pinned(self, T, W, seed, policy, value):
        assert repr(run_adversary(AdversaryParams(T, W, policy), seed)) == value

    def test_horizon_above_the_bound_is_rejected(self):
        assert AdversaryParams(MAX_ADVERSARY_T).horizon == MAX_ADVERSARY_T
        with pytest.raises(SchemaError) as err:
            AdversaryParams(MAX_ADVERSARY_T + 1)
        assert err.value.path == "adversary.horizon"
        assert err.value.message == f"must be <= 10,000,000, got {MAX_ADVERSARY_T + 1}"

    def test_width_above_the_bound_is_rejected(self):
        assert AdversaryParams(1, MAX_ADVERSARY_W).width == MAX_ADVERSARY_W
        with pytest.raises(SchemaError) as err:
            AdversaryParams(1, 1e200)
        assert err.value.path == "adversary.width"
        assert err.value.message == "must be <= 1e+150, got 1e+200"
        # the bound keeps the longest game's worst regret, 2 W^2 T, finite
        assert math.isfinite(2.0 * MAX_ADVERSARY_W**2 * MAX_ADVERSARY_T)
        for policy in ("ioga", "zero", "random"):
            assert math.isfinite(run_adversary(AdversaryParams(50, MAX_ADVERSARY_W, policy), 3))

    @pytest.mark.parametrize("seed", [2.5, 3.0, True, None, "1"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(SchemaError) as err:
            run_adversary(AdversaryParams(10, 1.0, "random"), seed)
        assert err.value.path == "seed"


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
        # the Frank-Wolfe gap alone stops it at about 1,000 iterations, about
        # 300x looser than the true shortfall there
        report = _long_huber_commute()
        sol = solve_offline(report.problem, x0=report.trajectory)
        assert sol.converged and sol.iterations <= 600
        tight = solve_offline(report.problem, x0=report.trajectory, tol=1e-9)
        assert tight.converged
        assert tight.utility - sol.utility <= sol.gap + 1e-9 * (1.0 + abs(tight.utility))

    def test_long_huber_commute_runs_half_the_checks_of_a_check_every_ten(self, monkeypatch):
        # most of its checks are certain to fail: the gap falls smoothly, and
        # the schedule skips the checks its trend rules out.  The Newton
        # finish, off here, certifies this solve after half its iterations
        report = _long_huber_commute()
        _without_newton_finish(monkeypatch)
        sol = solve_offline(report.problem, x0=report.trajectory)
        monkeypatch.setattr(metrics, "_MAX_WAIT", 1)
        every_ten = solve_offline(report.problem, x0=report.trajectory)
        assert every_ten.checks == every_ten.iterations // metrics.GAP_EVERY + 1
        assert sol.converged and every_ten.converged
        assert sol.checks <= every_ten.checks / 2
        assert sol.iterations <= 1.02 * every_ten.iterations

    def test_long_squared_commute_stops_in_under_half_the_frank_wolfe_iterations(self):
        # on the Frank-Wolfe gap alone this solve stops at 600 iterations; the
        # rigid-run bound stops it at 110, and still covers the true shortfall
        report = _bench_commute("squared", 256)
        sol = solve_offline(report.problem, x0=report.trajectory)
        assert sol.converged and sol.iterations < 600 // 2
        tight = solve_offline(report.problem, x0=report.trajectory, tol=1e-10)
        assert tight.converged
        assert tight.utility - sol.utility <= sol.gap + 1e-9 * (1.0 + abs(tight.utility))

    def test_long_huber_commute_solve_is_pinned_bit_for_bit(self, monkeypatch):
        # re-taken when the Newton finish came in: it certifies the solve
        # with 3 KKT solves at iteration 180, at a gap of 3.3e-5, not 0.101
        report = _long_huber_commute()
        sol = solve_offline(report.problem, x0=report.trajectory)
        digest = hashlib.sha256(np.array(sol.points).tobytes()).hexdigest()
        assert (sol.iterations, sol.restarts, repr(sol.gap), sol.converged, sol.newton_solves) == (
            180, 0, "3.304754386726371e-05", True, 3
        )
        assert digest == "89113283d9eef83c5942637d63f85fba78a1e86899f3fb8528da6f1f43d50758"
        # taken before the ascent ran on a preallocated workspace, which must
        # not move one bit of any solve; the ascent alone still gives it
        _without_newton_finish(monkeypatch)
        sol = solve_offline(report.problem, x0=report.trajectory)
        digest = hashlib.sha256(np.array(sol.points).tobytes()).hexdigest()
        assert (sol.iterations, sol.restarts, repr(sol.gap), sol.converged) == (
            470, 0, "0.10126090868705356", True
        )
        assert digest == "6cd10aac97c1d47fae4d6305d8e01499469be30f751ff66075583e9dd30c284d"

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


def _reprs(values):
    """Each element's ``repr``: equal bits, -0.0 told from 0.0, and a quick diff on failure."""
    return list(map(repr, values)) if isinstance(values, list) else repr(values)


def _outcome(run):
    """What a run returns, or the type and message of the error it raises."""
    try:
        return run()
    except InfeasibleStepSize as exc:
        return (type(exc).__name__, str(exc))


_COORDS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 4.75, 9.0])
_POINTS = st.tuples(_COORDS, _COORDS)


@st.composite
def small_commutes(draw):
    """Commutes of up to about 40 slots over small geometry; the corners come as examples."""
    goal_speed = draw(st.sampled_from([0.0, 0.0, 0.3]))
    noise = draw(st.sampled_from([
        NoiseModel(),
        NoiseModel("gaussian_decaying", 0.05, 1.0, 0),
        NoiseModel("gaussian_decaying", 0.0, 0.5, 3),
    ]))
    return d2d_config(
        start=draw(_POINTS),
        goal=PathSpec(draw(_POINTS), draw(_POINTS), goal_speed),
        peer=PathSpec(draw(_POINTS), draw(_POINTS), draw(st.sampled_from([0.0, 0.8, 2.5]))),
        peer_noise_std_m=draw(st.sampled_from([0.0, 0.4, 2.0])),
        delta=draw(st.integers(0, 30)),
        utility_kind=draw(st.sampled_from(["squared", "huber"])),
        mu=draw(st.sampled_from([1e-3, 0.2])),
        gradient_noise=noise,
        seed=draw(st.integers(0, 2**64 - 1)),
        # a negative drag makes a held slot's energy -0.0 before the sum's 0.0 +
        drag_coefficient=draw(st.sampled_from([1.0, -0.5])),
    )


# the agent starts on its goal, so the arrival latch fires at slot 1; jittered
# and not, the goal with a -0.0 coordinate
_LATCH_AT_ONCE = dict(
    start=(-0.0, 4.75),
    goal=PathSpec((-0.0, 4.75), (-0.0, 4.75)),
    peer=PathSpec((-2.5, 1.0), (9.0, 1.0), speed_mps=0.8),
    delta=12,
)
# the peer waits on the goal, so the agent reaches it mid-episode and holds it
_LATCH_LATER = dict(
    start=(0.0, 0.0),
    goal=PathSpec((4.75, -0.0), (4.75, -0.0)),
    peer=PathSpec((4.75, -0.0), (4.75, -0.0)),
    delta=25,
)


class TestPrecomputedCommute:
    """The precomputed commute against the per-slot one in ``episode_reference``, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(cfg=small_commutes(), mode=st.sampled_from(["standard", "lookahead"]))
    @example(cfg=d2d_config(**_LATCH_AT_ONCE), mode="standard")
    @example(cfg=d2d_config(**_LATCH_AT_ONCE, peer_noise_std_m=0.4), mode="lookahead")
    @example(cfg=d2d_config(**_LATCH_LATER), mode="standard")
    @example(cfg=d2d_config(**_LATCH_LATER, drag_coefficient=-0.5), mode="lookahead")
    @example(
        cfg=d2d_config(goal=PathSpec((9.0, -0.0), (1.0, -2.5), 0.3), peer_noise_std_m=2.0, delta=9),
        mode="lookahead",
    )
    # overflowing schedules: float arithmetic makes inf and NaN quietly, and so must the arrays
    @example(cfg=d2d_config(peer_noise_std_m=1e308), mode="standard")
    @example(cfg=d2d_config(drag_coefficient=1e308, slot_duration_s=2.0), mode="standard")
    @example(
        cfg=d2d_config(peer=PathSpec((0.0, 0.0), (5.0, 5.0), 1e308), slot_duration_s=2.0),
        mode="standard",
    )
    def test_matches_the_per_slot_commute(self, cfg, mode):
        ref = ReferenceCommute(cfg)
        driver = _D2DDriver(cfg)
        assert driver.region == ref.region
        # the records through the column store's view
        got = _outcome(lambda: [list(part) for part in run_episode(driver, mode)])
        want = _outcome(lambda: run_episode_reference(ref, mode))
        assert [_reprs(part) for part in got] == [_reprs(part) for part in want]
        if isinstance(want[0], str):
            return  # both failed at the same slot with the same message
        problem, energy_steps, rate_series = driver.freeze(as_array(got[0]))
        leads, ref_energy, ref_rates = ref.freeze(want[0])
        assert _reprs(driver.lambdas) == _reprs(ref.lambdas)
        assert _reprs(driver.alphas) == _reprs(ref.alphas)
        # the frozen family's leads are leads_true plus the last slot's
        assert _reprs(problem.utilities.leads.tolist()) == _reprs(list(map(list, leads)))
        assert _reprs(energy_steps) == _reprs(ref_energy)
        assert _reprs(rate_series) == _reprs(ref_rates)

    @pytest.mark.parametrize("mode", ["standard", "lookahead"])
    @pytest.mark.parametrize(
        "case, slot", [(_LATCH_AT_ONCE, 1), (_LATCH_LATER, None)], ids=["at-once", "later"]
    )
    def test_the_latch_examples_latch(self, case, slot, mode):
        driver = _D2DDriver(d2d_config(**case))
        run_episode(driver, mode)
        if slot is None:
            assert 1 < driver.arrival < driver.horizon - 1
        else:
            assert driver.arrival == slot


@st.composite
def gbar_sequences(draw):
    """Nondecreasing gradient bounds with repeats, from 0.0 on, with a NaN run slipped in.

    A repeat is an equal number but its own object, as the engine computes
    each slot's bound anew.
    """
    bound = st.floats(0.0, 1e6) | st.sampled_from([0.0, 0.25, 1.0])
    bounds = sorted(draw(st.lists(bound, max_size=12)))
    seq = [0.0] * draw(st.integers(0, 2))
    for b in bounds:
        seq += [b * 1.0 for _ in range(draw(st.integers(1, 4)))]
    if seq and draw(st.booleans()):
        at = draw(st.integers(0, len(seq)))
        seq[at:at] = [math.nan] * draw(st.integers(1, 2))
    return seq


class TestKeptCommuteRate:
    """``_D2DDriver.gamma`` keeps its rate while ``gbar`` holds, with a fresh call's outcome."""

    # alpha_min 1: every positive gbar empties the interval; 0.5: only gbar <= 0.505 v
    @settings(max_examples=150, deadline=None)
    @given(
        gbars=gbar_sequences(),
        alpha_min=st.sampled_from([0.05, 0.5, 1.0]) | st.floats(0.01, 1.0),
        margin=st.sampled_from([1.0, 1.01, 3.0]),
        v_max=st.sampled_from([0.5, 1.0]) | st.floats(0.5, 100.0),
    )
    @example(gbars=[0.0, 0.25, 0.25, 0.75, 0.75, math.nan, math.nan, 0.75, 2.0], alpha_min=0.5,
             margin=1.01, v_max=1.0)
    @example(gbars=[0.0, 0.0, 1.0, 1.0], alpha_min=1.0, margin=1.01, v_max=1.0)
    def test_gamma_matches_a_fresh_step_size_on_every_call(self, gbars, alpha_min, margin, v_max):
        driver = _D2DDriver(d2d_config(alpha_min=alpha_min, margin=margin, v_max_mps=v_max))
        v, L = driver.v, obj.D2D_SMOOTHNESS
        for call, gbar in enumerate(gbars):
            got = outcome(driver.gamma, (0.0, 0.0), gbar)
            want = outcome(obj.d2d_step_size, gbar, v, 1.0, alpha_min, L, margin)
            assert (call, got) == (call, want)

    @pytest.mark.parametrize("utility", ["squared", "huber"])
    def test_an_episode_calls_the_step_size_once_per_new_gbar(self, monkeypatch, utility):
        calls = []
        step_size = obj.d2d_step_size

        def spy(gbar, *args):
            calls.append(gbar)
            return step_size(gbar, *args)

        monkeypatch.setattr(obj, "d2d_step_size", spy)
        report = _bench_commute(utility, 128)
        running, bounds = 0.0, []
        for g in report.records.grad_norm:
            running = g if g > running else running
            bounds.append(running)
        new = [b for i, b in enumerate(bounds) if i == 0 or b != bounds[i - 1]]
        assert calls == new
        assert 1 < len(calls) < len(bounds) // 2
