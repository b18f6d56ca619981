import hashlib
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import ascent_reference
import numpy as np
import report_reference as report_ref
import pytest
from episode_reference import outcome
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trajsim import metrics
from trajsim import objectives as obj
from trajsim.config import parse_config_doc
from trajsim.engine import NoiseModel
from trajsim.errors import GridTooCoarse, HorizonMismatch
from trajsim.field import GyreSpec, UniformSpec, synth_field
from trajsim.geom import as_array, dist, dot, left_sum, norm_sq, powers, sub
from trajsim.metrics import (
    GAP_EVERY,
    GAP_TOL,
    OfflineProblem,
    OracleGrid,
    _finish,
    _Lockstep,
    _kkt_solve,
    _next_check,
    _violation,
    cumulative_error,
    dp_oracle,
    energy_cost,
    gradient_variation,
    solve_offline,
    solve_offline_batch,
    squared_path_length,
    straight_line_trajectory,
)
from trajsim.objectives import CommuteUtilities, VoyageUtilities
from trajsim.scenarios import PathSpec, ScenarioConfig, run_scenario
from trajsim.scenarios import sweep as run_sweep
from trajsim.sets import Box2D

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BIG_BOX = Box2D((-1e6, -1e6), (1e6, 1e6))
TEN_BOX = Box2D((0.0, 0.0), (10.0, 10.0))
# quarter-meter coordinates: midpoints and half steps are exact floats
QUARTERS = st.integers(-40, 40).map(lambda k: k / 4)
COORDS = st.floats(-1e6, 1e6)
# 40-bit mantissas on a 2**-30 grid: differences are 0 or at least 2**-30, so
# no square reaches the subnormal range, where rounding is absolute, not relative
GRID = st.integers(-(2**40), 2**40).map(lambda k: k * 2.0**-30)
GRID_POINTS = st.tuples(GRID, GRID)
UNIT = st.integers(0, 2**30).map(lambda k: k * 2.0**-30)


def quadratic_sequence(leads):
    """Utilities -0.5|x - lead|^2 per slot, with exact variation data."""
    return CommuteUtilities(leads, 1.0, 1e-3, "squared")


def _pairwise_maxima(us, points):
    """Per pair ``t``, the largest ``|grad U_{t+1}(x) - grad U_t(x)|^2`` over ``points``."""
    x = np.repeat(np.asarray(points, dtype=float)[:, None, :], us.horizon, axis=1)
    g = us.gradient_array(x)
    d = g[:, 1:] - g[:, :-1]
    return np.max(d[..., 0] ** 2 + d[..., 1] ** 2, axis=0)


def quadratic_problem(start, leads, caps_r, region=BIG_BOX, centers=None):
    T = len(leads)
    centers = np.zeros((T - 1, 2)) if centers is None else centers
    return OfflineProblem(
        start=start,
        utilities=quadratic_sequence(leads),
        centers=centers,
        radii=caps_r,
        region=region,
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

    @pytest.mark.parametrize("source", ["squared", "huber", "voyage"])
    def test_a_warm_start_solves_alike_in_every_form(self, source):
        if source == "voyage":
            problem, x0 = _random_problem("voyage", 60, 2)
        else:
            report = _huber_commute(128, 1, source)
            problem, x0 = report.problem, report.trajectory
        assert len(x0) == problem.horizon
        forms = [x0, [list(p) for p in x0], np.array(x0)]
        outcomes = [repr(_outcome(solve_offline(problem, x0=form))) for form in forms]
        assert outcomes[1:] == outcomes[:1] * 2

    @pytest.mark.parametrize("form", ["list", "array"])
    def test_a_warm_start_of_triples_is_rejected(self, form):
        # the list's flattened cells were read as pairs: a start from wrong displacements
        leads = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        problem = quadratic_problem((0.0, 0.0), leads, [1.5, 1.5])
        warm = [(0.0, 0.0, 7.0), (0.9, 0.0, 7.0), (1.8, 0.0, 7.0)]
        with pytest.raises(ValueError, match="pairs|shape"):
            solve_offline(problem, x0=warm if form == "list" else np.array(warm))

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
            CommuteUtilities([start] * T, 1.0, 0.3, "huber"),
        ):
            problem = OfflineProblem(
                start=start,
                utilities=utilities,
                centers=np.zeros((T - 1, 2)),
                radii=np.zeros(T - 1),
                region=TEN_BOX,
            )
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                sol = solve_offline(problem)
                warm = solve_offline(problem, x0=[start] * T)
            for s in (sol, warm):
                assert s.points == [start] * T
                assert s.converged and s.max_violation == 0.0

    def test_restarts_counted(self):
        # a long chain of binding caps overshoots under momentum; the default
        # gap stop certifies it after ten iterations, before any restart
        sol = solve_offline(_restart_chain(), tol=1e-9)
        assert sol.converged
        assert 0 < sol.restarts < sol.iterations


def _restart_chain() -> OfflineProblem:
    """A chain of binding caps whose tight solve takes the momentum restart."""
    leads = [(float(t), 3.0 * (-1) ** t) for t in range(40)]
    return quadratic_problem((0.0, 0.0), leads, [0.5] * 39)


def _pin(sol) -> tuple:
    """A solve's iterations, restarts, ``repr(gap)``, stop and the sha256 of its waypoints."""
    digest = hashlib.sha256(np.array(sol.points).tobytes()).hexdigest()
    return sol.iterations, sol.restarts, repr(sol.gap), sol.converged, digest


class TestOfflineProblem:
    def test_caps_stored_as_read_only_arrays(self):
        problem = quadratic_problem((0.0, 0.0), [(0.0, 0.0)] * 3, [1, 2], centers=[(1, 0), (0, 1)])
        assert problem.centers.shape == (2, 2) and problem.radii.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            problem.radii[0] = 5.0
        assert [(c.index, c.center, c.radius) for c in problem.caps] == [
            (0, (1.0, 0.0), 1.0),
            (1, (0.0, 1.0), 2.0),
        ]

    @pytest.mark.parametrize(
        "start, radii, centers",
        [
            ((0.0, 0.0), [1.0], None),  # one radius for two caps
            ((0.0, 0.0), [1.0, 1.0], np.zeros((2, 3))),
            ((0.0, 0.0), [1.0, -0.5], None),
            ((0.0, 0.0), [1.0, np.nan], None),
            ((0.0, 0.0), [1.0, np.inf], None),
            ((20.0, 0.0), [1.0, 1.0], None),  # start outside the box
            ((np.nan, 0.0), [1.0, 1.0], None),
        ],
    )
    def test_invalid_caps_or_start_rejected(self, start, radii, centers):
        with pytest.raises(ValueError):
            quadratic_problem(start, [(0.0, 0.0)] * 3, radii, region=TEN_BOX, centers=centers)


class TestCertification:
    """Hand-built waypoints that each break exactly one constraint by a known amount.

    Start (1, 5) in the 10 x 10 box; the caps have radius 1 around the
    displacements (0, 0) and (-2, 0).
    """

    @staticmethod
    def problem():
        return quadratic_problem(
            (1.0, 5.0), [(5.0, 5.0)] * 3, [1.0, 1.0], region=TEN_BOX, centers=[(0, 0), (-2, 0)]
        )

    @pytest.mark.parametrize(
        "pts, box_excess, worst",
        [
            ([(1.0, 5.0), (2.0, 5.0), (0.5, 5.0)], 0.0, 0.0),
            ([(1.0, 5.0), (4.0, 9.0), (2.0, 9.0)], 0.0, 4.0),  # first step (3, 4)
            ([(1.0, 5.0), (2.0, 5.0), (3.0, 9.0)], 0.0, 4.0),  # second step (-2, 0) + (3, 4)
            ([(1.0, 5.0), (1.0, 5.0), (-1.0, 5.0)], 1.0, 1.0),  # last point 1 left of the box
            ([(4.0, 9.0), (4.0, 9.0), (2.0, 9.0)], 0.0, 5.0),  # start moved by (3, 4)
        ],
        ids=["feasible", "first-cap", "second-cap", "box", "start-pin"],
    )
    def test_each_violation_is_measured_exactly(self, pts, box_excess, worst):
        p = self.problem()
        got = _violation(np.array(pts), p.start, p.centers, p.radii, p.region)
        assert got == (box_excess, worst)

    @pytest.mark.parametrize(
        "pts, worst",
        [
            ([(1.0, 5.0), (4.0, 9.0), (2.0, 9.0)], 4.0),
            ([(1.0, 5.0), (2.0, 5.0), (3.0, 9.0)], 4.0),
            ([(4.0, 9.0), (4.0, 9.0), (2.0, 9.0)], 5.0),
        ],
        ids=["first-cap", "second-cap", "start-pin"],
    )
    def test_violating_solution_is_reported(self, pts, worst):
        sol = _finish(self.problem(), (np.array(pts), 7, 2, 0.5, True, 3, 5), None, 100, GAP_TOL)
        assert sol.points == pts
        assert sol.max_violation == worst
        assert not sol.converged
        assert sol.warning == f"final violation {worst:.3e} above 1e-6"
        got = (sol.iterations, sol.restarts, sol.gap, sol.checks, sol.newton_solves)
        assert got == (7, 2, 0.5, 3, 5)

    def test_feasible_solution_is_certified(self):
        pts = [(1.0, 5.0), (2.0, 5.0), (0.5, 5.0)]
        sol = _finish(self.problem(), (np.array(pts), 7, 2, 0.5, True, 3, 0), None, 100, GAP_TOL)
        assert sol.points == pts
        assert sol.converged and sol.max_violation == 0.0 and sol.warning is None
        assert sol.gap == 0.5

    def test_unmet_gap_is_not_converged(self):
        pts = [(1.0, 5.0), (2.0, 5.0), (0.5, 5.0)]
        ascent = (np.array(pts), 100, 2, 0.5, False, 11, 0)
        sol = _finish(self.problem(), ascent, None, 100, GAP_TOL)
        assert not sol.converged and sol.gap == 0.5 and sol.warning is None

    def test_box_excess_hands_the_row_to_restoration(self):
        pts = [(1.0, 5.0), (1.0, 5.0), (-1.0, 5.0)]
        ascent = (np.array(pts), 7, 2, 0.5, True, 3, 4)
        # the box solve retracts toward staying put, which the second cap
        # (center (-2, 0), radius 1) forbids; an iterate the retraction cannot
        # make feasible certifies nothing, and 100 iterations end on one
        stuck = _finish(self.problem(), ascent, None, 100, GAP_TOL)
        assert not stuck.converged and stuck.max_violation > 1e-6 and stuck.gap == math.inf
        assert stuck.warning == f"final violation {stuck.max_violation:.3e} above 1e-6"
        # with caps that admit staying put, as every scenario's do, it is certified
        problem = replace(self.problem(), centers=np.zeros((2, 2)))
        sol = _finish(problem, ascent, None, 100_000, GAP_TOL)
        assert sol.converged and sol.max_violation <= 1e-9 and sol.warning is None
        assert all(TEN_BOX.contains(p, tol=1e-9) for p in sol.points)
        assert math.isfinite(sol.gap) and sol.gap >= 0.0
        # the checks are the box solve's own: at least one inner gap and one bound
        assert sol.checks >= 2 and sol.newton_solves == 0


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
        assert seq.total(traj) - seq.total(traj) == 0.0

    def test_hand_sum(self):
        # online frozen at s, offline on the target, distance 1, T=3;
        # utilities here are -|x - d|^2 (unit curvature): the voyage family
        # with goal weight 1 has no drift term
        d = (1.0, 0.0)
        seq = VoyageUtilities([1.0] * 3, [d] * 3, [(0.0, 0.0)] * 3, [(0.0, 0.0)] * 3)
        got = seq.total([d] * 3) - seq.total([(0.0, 0.0)] * 3)
        assert got == pytest.approx(3.0)

    def test_mismatched_horizons_rejected(self):
        seq = quadratic_sequence([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(HorizonMismatch):
            seq.total([(0.0, 0.0)] * 3)

    @pytest.mark.parametrize(
        "family",
        [
            CommuteUtilities([(0, 0), (1, 1), (2, 2)], 1.0, 0.1, "huber"),
            VoyageUtilities([0.5] * 3, [(1.0, 0.0)] * 3, [(0.1, 0.0)] * 3, [(0.0, 0.0)] * 3),
        ],
        ids=["commute", "voyage"],
    )
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_evaluate_rejects_a_mismatched_horizon(self, family, n):
        # evaluate used to return one value per point, silently truncating
        with pytest.raises(HorizonMismatch):
            family.evaluate([(0.0, 0.0)] * n)
        assert len(family.evaluate([(0.0, 0.0)] * 3)) == 3

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
            us = problem.utilities
            assert us.total(sol.points) - us.total(online) >= -1e-6


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

    @pytest.mark.parametrize("T", [0, 1, 2, 2048])
    def test_path_length_keeps_the_point_loop_bits(self, T):
        # magnitudes from 1e-3 to 1e5, so a reordered sum would round differently
        rng = np.random.default_rng(T)
        x = rng.normal(0, 1, (T, 2)) * 10.0 ** rng.integers(-3, 6, (T, 2))
        x[rng.random((T, 2)) < 0.2] = -0.0
        x[rng.random((T, 2)) < 0.1] = 0.0
        pts = [(float(a), float(b)) for a, b in x]
        want = left_sum((norm_sq(sub(b, a)) for a, b in zip(pts, pts[1:])), 0.0)
        assert repr(squared_path_length(pts)) == repr(want)
        assert repr(squared_path_length(x)) == repr(want)

    @pytest.mark.parametrize(
        "pts",
        [
            [(1e308, 0.0), (-1e308, 0.0)],  # the difference overflows
            [(0.0, 1e200), (0.0, -1e200), (1.0, 2.0)],  # the square overflows
            [(1e308, 0.0), (-1e308, 0.0), (1e308, 0.0)],
            [(math.inf, 0.0), (math.inf, 1.0)],  # inf - inf is NaN
        ],
    )
    def test_path_length_overflows_quietly_like_the_point_loop(self, pts):
        want = left_sum((norm_sq(sub(b, a)) for a, b in zip(pts, pts[1:])), 0.0)
        assert repr(squared_path_length(pts)) == repr(want)

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
        assert gv.exact

    def test_huber_at_mu_one_is_the_squared_variation(self):
        leads = [(0.0, 0.0), (2.0, 1.0), (3.0, 3.0)]
        squared = gradient_variation(quadratic_sequence(leads), TEN_BOX)
        # mu = 1 makes the Huber penalty the squared one
        huber = gradient_variation(CommuteUtilities(leads, 1.0, 1.0, "huber"), TEN_BOX)
        assert squared.exact and huber.exact
        assert huber.value == pytest.approx(squared.value, rel=1e-12)

    def test_huber_closed_form_matches_scalar_midpoints(self):
        rng = np.random.default_rng(4)
        leads = [tuple(p) for p in rng.uniform(0.0, 10.0, (12, 2)).tolist()]
        seq = CommuteUtilities(leads, 1.0, 0.2, "huber")
        gv = gradient_variation(seq, TEN_BOX)
        # each pair's maximum, through the scalar gradient at its leads' midpoint
        expected = 0.0
        for e_now, e_next in zip(leads, leads[1:]):
            mid = ((e_now[0] + e_next[0]) / 2, (e_now[1] + e_next[1]) / 2)
            g_now = obj.d2d_gradient(mid, e_now, 1.0, 0.2)
            g_next = obj.d2d_gradient(mid, e_next, 1.0, 0.2)
            expected += norm_sq(sub(g_next, g_now))
        assert gv.exact
        assert gv.value == pytest.approx(expected, rel=1e-12)
        # a box without the midpoints leaves the same value as an upper bound
        cut = gradient_variation(seq, Box2D((0.0, 0.0), (1.0, 1.0)))
        assert not cut.exact and cut.value == gv.value

    @given(
        leads=st.lists(st.tuples(QUARTERS, QUARTERS), min_size=2, max_size=8),
        mu=st.floats(0.0, 1.0, exclude_min=True),
        v=st.floats(0.05, 10.0),
        corners=st.tuples(QUARTERS, QUARTERS, QUARTERS, QUARTERS),
        hull=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_huber_closed_form_is_the_box_maximum(self, leads, mu, v, corners, hull, seed):
        a = np.asarray(leads)
        if hull:  # the leads' bounding box holds every midpoint
            region = Box2D(tuple(a.min(axis=0)), tuple(a.max(axis=0)))
        else:
            x0, x1, y0, y1 = corners
            region = Box2D((min(x0, x1), min(y0, y1)), (max(x0, x1), max(y0, y1)))
        us = CommuteUtilities(leads, v, mu, "huber")
        terms, exact = us.variation_terms(region)
        gv = gradient_variation(us, region)
        assert gv.value == left_sum(terms, 0.0) and gv.exact == exact
        mids = (0.5 * (a[1:] + a[:-1])).tolist()
        assert exact == all(region.contains(m) for m in mids)
        terms = np.asarray(terms)
        # a 101 x 101 grid of the box plus the midpoints inside it
        xs = np.linspace(region.lo[0], region.hi[0], 101)
        ys = np.linspace(region.lo[1], region.hi[1], 101)
        grid = [np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)]
        grid += [np.array([m for m in mids if region.contains(m)]).reshape(-1, 2)]
        dense = _pairwise_maxima(us, np.vstack(grid))
        assert np.all(terms >= dense * (1.0 - 1e-12))
        if exact:
            assert np.allclose(terms, dense, rtol=1e-12, atol=0.0)
        rng = np.random.default_rng(seed)
        sampled = _pairwise_maxima(us, rng.uniform(region.lo, region.hi, (256, 2)))
        assert np.all(terms >= sampled * (1.0 - 1e-12))

    @given(
        T=st.integers(1, 400),
        scale=st.sampled_from([1e-3, 1.0, 1e6]),
        seed=st.integers(0, 2**32 - 1),
        corners=st.tuples(COORDS, COORDS, COORDS, COORDS),
    )
    @settings(max_examples=50, deadline=None)
    def test_squared_variation_keeps_the_vertex_bits(self, T, scale, seed, corners):
        # long horizons: x ** 2 and x * x differ in the last bit on about
        # one float in a thousand
        leads = np.random.default_rng(seed).uniform(-scale, scale, (T, 2))
        x0, x1, y0, y1 = corners
        region = Box2D((min(x0, x1), min(y0, y1)), (max(x0, x1), max(y0, y1)))
        us = quadratic_sequence(leads)
        # the box-vertex maximum of the affine difference 0 * x + b, squared with **
        steps = (us.leads[1:] - us.leads[:-1]).tolist()
        vertex = [
            max((0.0 * c[0] + b[0]) ** 2 + (0.0 * c[1] + b[1]) ** 2 for c in region.vertices())
            for b in steps
        ]
        terms, exact = us.variation_terms(region)
        assert exact and list(map(repr, terms)) == list(map(repr, vertex))
        gv = gradient_variation(us, region)
        assert gv.exact and repr(gv.value) == repr(left_sum(vertex, 0.0))

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
        seq = VoyageUtilities(lam, goals, vos, [(0.0, 0.0)] * 2)
        terms, exact = seq.variation_terms(TEN_BOX)
        vertex = max(norm_sq((a * c[0] + b[0], a * c[1] + b[1])) for c in TEN_BOX.vertices())
        assert exact and terms == [pytest.approx(vertex, rel=1e-12)]
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

    @staticmethod
    def conserved(traj, goal, fld, tau=1.0):
        """Energy saved against the straight line to ``goal`` over the same horizon."""
        straight = straight_line_trajectory(traj[0], goal, len(traj))
        return energy_cost(straight, fld, 1.0, tau) - energy_cost(traj, fld, 1.0, tau)

    def test_conserved_straight_line_is_zero(self):
        goal = (10.0, 0.0)
        traj = straight_line_trajectory((0.0, 0.0), goal, 6)
        assert self.conserved(traj, goal, None) == 0.0

    def test_conserved_sign_follows_current(self):
        # drifting at current speed is free; the slower straight line must
        # brake against the current and pays for it
        goal = (6.0, 0.0)
        helpful = synth_field(UniformSpec(1.0, 0.0), (0.0, 20.0), (-10.0, 10.0))
        drift_path = [(float(2 * t), 0.0) for t in range(6)]
        assert self.conserved(drift_path, goal, helpful, tau=2.0) > 0.0
        against = synth_field(UniformSpec(-0.5, 0.0), (0.0, 20.0), (-10.0, 10.0))
        detour = [(0.0, 0.0), (2.0, 2.0), (4.0, 3.0), (6.0, 2.0), (8.0, 1.0), (10.0, 0.0)]
        assert self.conserved(detour, (10.0, 0.0), against) < 0.0


# NaN, signed zeros, infinities, subnormals, the smallest normal, and values
# whose square (1e155) or cube (1e103) overflows, among all floats
EDGES = st.sampled_from(
    [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
     1.0, -1.0, 1e103, -1e103, 1e155, -1e155, 1e300]
) | st.floats()
EDGE_POINTS = st.tuples(EDGES, EDGES)


def _quiet(fn, *args):
    """:func:`outcome` of a reference whose numpy set-up may meet NaN or overflow."""
    with np.errstate(all="ignore"):
        return outcome(fn, *args)


class TestAsArray:
    def test_pairs_become_rows_and_a_float_array_passes_through(self):
        a = as_array([(1, 2), [3.5, -0.0]])
        assert a.dtype == float and repr(a.tolist()) == repr([[1.0, 2.0], [3.5, -0.0]])
        assert as_array([]).shape == (0, 2)
        assert as_array(a) is a

    @pytest.mark.parametrize(
        "rows",
        [[(1, 2, 3), (4, 5, 6)], [(1, 2), (3, 4, 5)], [(1, 2), (3,)], [(1,), (2,)]],
        ids=["triples", "one-wide", "one-short", "singles"],
    )
    def test_rows_that_are_not_pairs_raise(self, rows):
        # [(1, 2, 3), (4, 5, 6)] used to come back as [[1, 2], [3, 4]]
        with pytest.raises(ValueError):
            as_array(rows)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 1), (4,), (2, 2, 1)])
    def test_an_array_not_of_pairs_raises(self, shape):
        with pytest.raises(ValueError, match="shape"):
            as_array(np.zeros(shape))


class TestArrayPassesKeepTheLoopBits:
    """Each of the regret report's array passes against its per-slot loop, by ``repr``."""

    FIELDS = {
        None: None,
        "uniform": synth_field(UniformSpec(0.5, -0.25), (0.0, 100.0), (-100.0, 100.0)),
        "gyre": synth_field(
            GyreSpec((20.0, 30.0), 0.4, 25.0), np.linspace(0.0, 60.0, 7),
            np.linspace(0.0, 60.0, 5), (0.0, 3.0, 9.0),
        ),
    }

    @settings(max_examples=100, deadline=None)
    @given(x=st.lists(EDGES, max_size=12), k=st.sampled_from([2, 3, 2.0, 3.0]))
    def test_powers_are_the_freeze_comprehensions(self, x, k):
        a = np.array(x, dtype=float)
        assert outcome(lambda: powers(a, k).tolist()) == _quiet(
            lambda: report_ref.power_list(a, k).tolist()
        )

    @settings(max_examples=100, deadline=None)
    @given(x=st.lists(st.floats(0.0) | st.sampled_from([0.0, 5e-324, 1e-200]), max_size=12),
           q=st.sampled_from([-2.0, -3.5, -4.0]))
    def test_powers_of_the_rate_distances(self, x, q):
        a = np.array(x, dtype=float)
        assert outcome(lambda: powers(a, q).tolist()) == _quiet(
            lambda: report_ref.power_list(a, q).tolist()
        )

    @settings(max_examples=100, deadline=None)
    @given(
        leads=st.lists(EDGE_POINTS, min_size=1, max_size=8),
        v=EDGES,
        mu=EDGES,
        kind=st.sampled_from(["squared", "huber"]),
        corners=st.tuples(EDGE_POINTS, EDGE_POINTS).filter(
            lambda c: all(lo <= hi for lo, hi in zip(*c))
        ),
    )
    # a NaN cap, which the builtin min(n, cap) passes over
    @example([(0.0, 0.0), (3.0, 4.0)], math.nan, 0.5, "huber", ((0.0, 0.0), (1.0, 1.0)))
    def test_commute_variation_terms(self, leads, v, mu, kind, corners):
        us = CommuteUtilities(leads, v, mu, kind)
        region = Box2D(*corners)
        want = _quiet(report_ref.commute_variation_terms, us, region)
        assert outcome(us.variation_terms, region) == want

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.tuples(EDGES, EDGE_POINTS, EDGE_POINTS), min_size=1, max_size=8),
        corners=st.tuples(EDGE_POINTS, EDGE_POINTS).filter(
            lambda c: all(lo <= hi for lo, hi in zip(*c))
        ),
    )
    # equal weights meet an infinite vertex: 0 * inf is NaN at the second and
    # third vertices, which the builtin max passes over
    @example([(0.5, (1.0, 2.0), (0.1, 0.0)), (0.5, (3.0, 1.0), (0.0, 0.2))],
             ((0.0, 0.0), (math.inf, 0.0)))
    def test_voyage_variation_terms(self, rows, corners):
        lam, goals, currents = (list(c) for c in zip(*rows))
        with np.errstate(all="ignore"):
            us = VoyageUtilities(lam, goals, currents, goals)
        region = Box2D(*corners)
        want = _quiet(report_ref.voyage_variation_terms, us, region)
        assert outcome(us.variation_terms, region) == want

    @settings(max_examples=100, deadline=None)
    @given(eps_sq=st.lists(EDGES, max_size=12))
    def test_cumulative_error(self, eps_sq):
        want = outcome(report_ref.cumulative_error, eps_sq)
        assert outcome(cumulative_error, eps_sq) == want

    @pytest.mark.parametrize("eps_sq, index", [
        ([0.1, -0.1], 1), ([-0.0, 0.0, -5e-324], 2), ([math.nan, -math.inf, -1.0], 1),
    ])
    def test_a_negative_error_names_the_first(self, eps_sq, index):
        with pytest.raises(ValueError, match=rf"^eps_sq\[{index}\] = "):
            cumulative_error(eps_sq)
        assert outcome(cumulative_error, eps_sq) == outcome(report_ref.cumulative_error, eps_sq)

    @settings(max_examples=100, deadline=None)
    @given(
        traj=st.lists(EDGE_POINTS, max_size=8),
        field=st.sampled_from([None, "uniform", "gyre"]),
        c_d=EDGES,
        tau=EDGES,
    )
    def test_energy_cost(self, traj, field, c_d, tau):
        fld = self.FIELDS[field]
        want = outcome(report_ref.energy_cost, traj, fld, c_d, tau)
        assert outcome(energy_cost, traj, fld, c_d, tau) == want
        if len(traj) > 1 and want[0] is not ValueError:
            assert outcome(energy_cost, np.array(traj), fld, c_d, tau) == want

    def test_energy_cost_overflow_raises_the_loops_error(self):
        traj = [(0.0, 0.0), (1.0, 1.0), (1e200, 0.0), (math.inf, 0.0)]
        want = outcome(report_ref.energy_cost, traj, None, 1.0, 1.0)
        assert want[0] is OverflowError
        assert outcome(energy_cost, traj, None, 1.0, 1.0) == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_mixed_magnitude_inputs(self, seed):
        # 2048 slots of magnitudes 1e-3 to 1e5: a sum or a product taken in
        # another order would round differently somewhere
        rng = np.random.default_rng(seed)
        T = 2048
        x = rng.normal(0.0, 1.0, (T, 2)) * 10.0 ** rng.integers(-3, 6, (T, 2))
        traj = [tuple(p) for p in x.tolist()]
        c_d, tau = rng.uniform(0.1, 3.0, 2).tolist()
        gyre = synth_field(GyreSpec((0.0, 0.0), 0.4, 1e4), np.linspace(-1e5, 1e5, 9),
                           np.linspace(-1e5, 1e5, 9), (0.0, 500.0, 3000.0))
        for fld in (None, gyre):
            want = report_ref.energy_cost(traj, fld, c_d, tau)
            assert repr(energy_cost(traj, fld, c_d, tau)) == repr(want)
        eps_sq = np.abs(x[:, 0]).tolist()
        assert repr(cumulative_error(eps_sq)) == repr(report_ref.cumulative_error(eps_sq))
        s, d = traj[0], traj[-1]
        want = report_ref.straight_line_trajectory(s, d, T)
        assert repr(straight_line_trajectory(s, d, T)) == repr(want)
        region = Box2D((-1e4, -2e4), (3e4, 1e4))
        for kind in ("squared", "huber"):
            us = CommuteUtilities(x, 700.0, 0.3, kind)
            want = report_ref.commute_variation_terms(us, region)
            assert repr(us.variation_terms(region)) == repr(want)
        us = VoyageUtilities(rng.uniform(0.0, 1.0, T), x, x[::-1] * 1e-3, x)
        want = report_ref.voyage_variation_terms(us, region)
        assert repr(us.variation_terms(region)) == repr(want)

    @settings(max_examples=100, deadline=None)
    @given(s=EDGE_POINTS, d=EDGE_POINTS, T=st.integers(-1, 40))
    def test_straight_line_trajectory(self, s, d, T):
        want = outcome(report_ref.straight_line_trajectory, s, d, T)
        assert outcome(straight_line_trajectory, s, d, T) == want


class TestUtilitySequenceBatch:
    def test_batch_paths_agree_with_scalar(self):
        pts = [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)]
        x = np.asarray(pts)
        leads = [(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]
        commute = CommuteUtilities(leads, 1.0, 1e-3, "squared")
        assert commute.total(pts) == pytest.approx(sum(u(p) for u, p in zip(commute.values, pts)))
        assert np.array_equal(commute.gradient_array(x), [sub(e, p) for e, p in zip(leads, pts)])
        lam = [0.2, 0.5, 1.0]
        goals = [(4.0, 1.0)] * 3
        currents = [(0.3, -0.1), (0.0, 0.2), (0.1, 0.1)]
        prevs = [(0.5, 0.5), (0.5, 0.5), (1.0, 1.0)]
        voyage = VoyageUtilities(lam, goals, currents, prevs)
        assert voyage.total(pts) == pytest.approx(sum(u(p) for u, p in zip(voyage.values, pts)))
        per_slot = [obj.ocean_gradient(p, g, c, l) for p, g, c, l in zip(pts, goals, currents, lam)]
        assert np.array_equal(voyage.gradient_array(x), per_slot)

    def test_evaluate_is_each_slots_share_of_total_bitwise(self):
        rng = np.random.default_rng(7)
        T = 9
        x = rng.normal(0.0, 3.0, (T, 2))
        families = [
            CommuteUtilities(rng.normal(0.0, 3.0, (T, 2)), 1.3, 0.2, kind)
            for kind in ("squared", "huber")
        ] + [
            VoyageUtilities(
                rng.uniform(0.0, 1.0, T), rng.normal(0.0, 3.0, (T, 2)),
                rng.normal(0.0, 0.3, (T, 2)), rng.normal(0.0, 3.0, (T, 2)),
            )
        ]
        for family in families:
            want = [family.total_scale * float(np.sum(row)) for row in family.slot_terms(x)]
            for pts in (x, [tuple(p) for p in x.tolist()]):
                assert list(map(repr, family.evaluate(pts))) == list(map(repr, want))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), T=st.integers(1, 8), kind=st.sampled_from(["squared", "huber", "voyage"]))
    def test_evaluate_agrees_with_the_scalar_references_to_rounding(self, data, T, kind):
        # Both forms take the same coordinate differences; they round the
        # squared distance differently (a sum of squares against a squared
        # hypot), so each slot may differ by a few ulps of its terms' magnitudes
        def draw(strategy):
            return data.draw(st.lists(strategy, min_size=T, max_size=T))

        pts = draw(GRID_POINTS)
        if kind == "voyage":
            lam, goals, currents, prevs = draw(UNIT), draw(GRID_POINTS), draw(GRID_POINTS), draw(GRID_POINTS)
            family = VoyageUtilities(lam, goals, currents, prevs)
            slots = list(zip(pts, prevs, goals, currents, lam))
            want = [obj.ocean_utility(*slot) for slot in slots]
            # the quadratic part and the drift part
            magnitudes = [
                l * dist(x, g) ** 2 + abs((1.0 - l) * dot(sub(xp, x), c)) for x, xp, g, c, l in slots
            ]
        else:
            leads = draw(GRID_POINTS)
            v = data.draw(st.integers(1, 2**40).map(lambda k: k * 2.0**-30))
            mu = data.draw(st.integers(1, 2**30).map(lambda k: k * 2.0**-30))
            family = CommuteUtilities(leads, v, mu, kind)
            want = [obj.d2d_utility(x, e, v, mu, kind) for x, e in zip(pts, leads)]
            # inside the cap the quadratic; beyond it the Huber penalty's
            # linear, quadratic and constant parts
            magnitudes = [
                0.5 * d * d if kind == "squared" or d <= v
                else v * (1.0 - mu) * d + 0.5 * mu * d * d + (1.0 - mu) * v * v / 2.0
                for d in (dist(x, e) for x, e in zip(pts, leads))
            ]
        eps = np.finfo(float).eps
        for got, ref, m in zip(family.evaluate(pts), want, magnitudes):
            assert abs(got - ref) <= 8.0 * eps * m, (got, ref, m)


def _random_problem(kind: str, T: int, seed: int) -> tuple[OfflineProblem, list | None]:
    """A random instance of one family and its warm start (or ``None``)."""
    rng = np.random.default_rng(seed)
    start = tuple(rng.uniform(-5.0, 5.0, 2).tolist())
    walk = np.asarray(start) + np.cumsum(rng.normal(0.0, 2.0, (T, 2)), axis=0)
    radii = rng.choice([0.0, 0.5, 1.0, 3.0], T - 1)
    if kind == "voyage":
        centers = rng.normal(0.0, 0.3, (T - 1, 2))
        utilities = VoyageUtilities(
            rng.uniform(0.0, 1.0, T), walk, rng.normal(0.0, 0.3, (T, 2)), walk[::-1]
        )
    else:
        centers = np.zeros((T - 1, 2))
        utilities = CommuteUtilities(walk, rng.uniform(0.5, 3.0), rng.uniform(0.01, 1.0), kind)
    problem = OfflineProblem(tuple(start), utilities, centers, radii, BIG_BOX)
    warm = rng.integers(3)  # no warm start, the random walk, or one of the wrong length
    x0 = None if warm == 0 else [tuple(p) for p in walk.tolist()[: T + 1 - warm]]
    return problem, x0


def _boxed_problem(T: int) -> OfflineProblem:
    """Leads far outside a small box: the ascent leaves it and the box solve takes over."""
    leads = [(3.0 * t, 2.0 * t) for t in range(T)]
    box = Box2D((-1.0, -1.0), (2.0, 1.5))
    return quadratic_problem((0.0, 0.0), leads, np.ones(T - 1), region=box)


def _without_newton_finish(monkeypatch):
    """Turn the offline ascent's Newton finish off: every attempt fails at once."""
    monkeypatch.setattr(_Lockstep, "finish", lambda self, j, z, total, tol: False)


def _outcome(sol):
    return (
        sol.points, sol.utility, sol.iterations, sol.restarts,
        sol.converged, sol.warning, sol.max_violation, sol.gap, sol.checks, sol.newton_solves,
    )


def _box_binding_problem(kind: str, T: int, seed: int) -> OfflineProblem:
    """A small random instance whose targets lie mostly outside its box.

    Every cap admits staying put, so no lattice node of the oracle is a dead end.
    """
    rng = np.random.default_rng(seed)
    hi = rng.uniform(2.0, 6.0, 2)
    box = Box2D((0.0, 0.0), tuple(hi.tolist()))
    start = tuple(rng.uniform(0.0, hi).tolist())
    targets = rng.uniform(-10.0, 16.0, (T, 2))
    radii = rng.uniform(0.3, 3.0, T - 1)
    if kind == "voyage":
        centers = rng.normal(0.0, 0.3, (T - 1, 2))
        radii += np.hypot(centers[:, 0], centers[:, 1])
        currents = rng.normal(0.0, 0.3, (T, 2))
        prevs = rng.uniform(0.0, hi, (T, 2))
        utilities = VoyageUtilities(rng.uniform(0.2, 1.0, T), targets, currents, prevs)
        return OfflineProblem(start, utilities, centers, radii, box)
    utilities = CommuteUtilities(targets, rng.uniform(0.5, 3.0), rng.uniform(0.01, 1.0), kind)
    return OfflineProblem(start, utilities, np.zeros((T - 1, 2)), radii, box)


# floating-point slack of a utility comparison: both totals are rounded sums
def _rounding(u: float) -> float:
    return 1e-9 * (1.0 + abs(u))


class TestDualityGap:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["squared", "huber", "voyage"]),
        T=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        # 7 and 25 end between two scheduled checks: the max_iter check still runs
        max_iter=st.sampled_from([0, 1, 7, 10, 25, 100_000]),
    )
    def test_gap_bounds_the_shortfall_of_a_tight_solve(self, kind, T, seed, max_iter):
        problem, x0 = _random_problem(kind, T, seed)
        sol = solve_offline(problem, x0=x0, max_iter=max_iter)
        tight = solve_offline(problem, tol=1e-12)
        assert sol.gap >= 0.0 and tight.gap >= 0.0
        assert tight.utility - sol.utility <= sol.gap + _rounding(tight.utility)
        assert sol.iterations <= max_iter and (sol.converged or sol.iterations == max_iter)

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["squared", "huber", "voyage"]),
        T=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gap_bounds_the_shortfall_of_the_oracle(self, kind, T, seed):
        # the oracle's lattice covers a box inside the unboxed problem's region
        boxed = _box_binding_problem(kind, T, seed)
        problem = replace(boxed, region=BIG_BOX)
        sol = solve_offline(problem)
        oracle = dp_oracle(problem, OracleGrid(boxed.region.lo, boxed.region.hi, 31, 31))
        assert sol.converged and sol.gap >= 0.0
        assert oracle.utility - sol.utility <= sol.gap + _rounding(oracle.utility)

    def test_default_stop_is_certified_and_tighter_tol_runs_longer(self):
        problem, _ = _random_problem("squared", 30, 5)
        loose = solve_offline(problem)
        tight = solve_offline(problem, tol=1e-9)
        assert loose.converged and tight.converged
        assert loose.iterations % 10 == 0 and loose.iterations <= tight.iterations
        assert tight.utility - loose.utility <= loose.gap + _rounding(tight.utility)


def _reference_fw_gap(problem: OfflineProblem, z: np.ndarray) -> tuple[np.ndarray, float]:
    """Waypoints at displacements ``z`` and their Frank-Wolfe gap, cap by cap."""
    steps = np.cumsum(problem.centers + z, axis=0)
    x = np.vstack([problem.start, np.add(problem.start, steps)])
    gx = problem.utilities.gradient_array(x)
    gap = 0.0
    for t in range(problem.horizon - 1):
        g = gx[t + 1 :].sum(axis=0)
        gap += max(problem.radii[t] * math.hypot(g[0], g[1]) - float(g @ z[t]), 0.0)
    return x, gap


def _maximizer(us, a: np.ndarray) -> np.ndarray:
    """Per slot, the ``y`` that attains ``U_t*(a) = max_y U_t(y) - <a, y>``."""
    if isinstance(us, VoyageUtilities):
        drift = (1.0 - us.lam)[:, None] * us.current
        return us.goal + (drift - a) / (2.0 * us.lam[:, None])
    s = np.hypot(a[:, 0], a[:, 1])
    # the penalty's inverse slope at s: s up to v, (s - (1 - mu) v) / mu beyond
    m = np.where(s <= us.v, s, (s - (1.0 - us.mu) * us.v) / us.mu)
    return us.leads - a * (m / np.where(s > 0.0, s, 1.0))[:, None]


class TestDualStepCertificate:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["squared", "huber", "voyage"]),
        rows=st.lists(
            st.tuples(st.integers(2, 25), st.integers(0, 2**32 - 1)), min_size=1, max_size=4
        ),
        steps=st.sampled_from([0, 1, 5, 30]),
    )
    def test_gap_lies_between_the_shortfall_and_the_frank_wolfe_gap(self, kind, rows, steps):
        # one lockstep of rows with differing horizons, v, mu and goal weights
        instances = [_random_problem(kind, T, seed) for T, seed in rows]
        problems = [p for p, _ in instances]
        lock = _Lockstep(problems, [x0 for _, x0 in instances])
        z = lock.z0
        for _ in range(steps):
            z = lock.ascent_step(z)
        with np.errstate(all="raise"):
            lock.certify(z, lock.values(z), GAP_TOL)
        for r, problem in enumerate(problems):
            x, fw = _reference_fw_gap(problem, z[r, : problem.horizon - 1])
            gap = lock.gaps[r]
            assert 0.0 <= gap <= fw + _rounding(fw)
            tight = solve_offline(problem, tol=1e-12)
            shortfall = tight.utility - problem.utilities.total(x)
            assert shortfall <= gap + _rounding(tight.utility)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["huber", "voyage"]),
        T=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e3]),
    )
    def test_fenchel_young_residual_is_the_conjugate_gap(self, kind, T, seed, scale):
        us = _random_problem(kind, T, seed)[0].utilities
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 5.0, (T, 2))
        grad = us.gradient_array(x)
        delta = rng.normal(0.0, scale, (T, 2))
        a = grad + delta
        terms = us.slot_terms(x)
        at_gradient = us.fenchel_young(x, grad, np.zeros_like(x), terms)
        residual = us.fenchel_young(x, grad, delta, terms)
        y = _maximizer(us, a)
        u_x, u_y = np.array(us.evaluate(x.tolist())), np.array(us.evaluate(y.tolist()))
        ax, ay = np.einsum("ij,ij->i", a, x), np.einsum("ij,ij->i", a, y)
        # the conjugate at a is attained at y, and beats the value at any other point
        size = 1e-9 * (1.0 + np.abs(u_x) + np.abs(u_y) + np.abs(ax) + np.abs(ay))
        assert np.all(np.abs(residual - (u_y - ay - u_x + ax)) <= size)
        assert np.all(residual >= -size)
        gx = np.einsum("ij,ij->i", grad, x)
        assert np.all(np.abs(at_gradient) <= 1e-9 * (1.0 + np.abs(u_x) + np.abs(gx)))
        for w in (x, x + rng.normal(0.0, 1.0, (T, 2))):
            u_w = np.array(us.evaluate(w.tolist()))
            assert np.all(u_w - np.einsum("ij,ij->i", a, w) <= u_y - ay + size)

    def test_zero_goal_weight_falls_back_to_the_frank_wolfe_gap(self):
        # at lam = 0 the slot's utility is linear and its conjugate infinite
        problem, x0 = _random_problem("voyage", 12, 3)
        us = problem.utilities
        lam = us.lam.copy()
        lam[5] = 0.0
        zero = replace(problem, utilities=VoyageUtilities(lam, us.goal, us.current, us.prev))
        gaps = {}
        for name, p in (("positive", problem), ("zero", zero)):
            lock = _Lockstep([p], [x0])
            with np.errstate(all="raise"):
                lock.certify(lock.z0, lock.u0, GAP_TOL)
            x, fw = _reference_fw_gap(p, lock.z0[0])
            gaps[name] = (lock.gaps[0], fw)
            tight = solve_offline(p, tol=1e-12)
            assert tight.utility - p.utilities.total(x) <= lock.gaps[0] + _rounding(tight.utility)
        gap, fw = gaps["zero"]
        assert gap == pytest.approx(fw, rel=1e-12)
        gap, fw = gaps["positive"]
        assert gap < fw
        assert zero.utilities.curvature(None)[5] == math.inf
        assert zero.utilities.fenchel_young(None, None, np.zeros((12, 2)), None)[5] == math.inf

    @pytest.mark.parametrize("kind", ["squared", "huber", "voyage"])
    def test_padded_rows_certify_as_solo_rows(self, kind):
        instances = [_random_problem(kind, T, seed) for T, seed in ((30, 1), (7, 2), (2, 3), (19, 4))]
        problems = [p for p, _ in instances]
        x0s = [x0 for _, x0 in instances]
        batch = _Lockstep(problems, x0s)
        z = batch.ascent_step(batch.ascent_step(batch.z0))
        with np.errstate(all="raise"):
            batch.certify(z, batch.values(z), GAP_TOL)
            for r, (p, x0) in enumerate(instances):
                solo = _Lockstep([p], [x0])
                row = z[r : r + 1, : p.horizon - 1]
                solo.certify(row, solo.values(row), GAP_TOL)
                assert solo.gaps[0] == batch.gaps[r]
                assert solo.gaps[0] <= _reference_fw_gap(p, row[0])[1] * (1.0 + 1e-12)


def _free_chain(radii) -> OfflineProblem:
    """A squared row at the start, its leads near it, its caps centred on staying put."""
    rng = np.random.default_rng(len(radii))
    leads = rng.uniform(-3.0, 3.0, (len(radii) + 1, 2))
    return quadratic_problem((0.0, 0.0), leads, radii)


def _rigid_run_shortfall(problem: OfflineProblem, runs: list[list[int]]) -> float:
    """The shortfall of staying put when each run of slots moves rigidly and freely.

    Each run shifts by the mean of its pulls; the run that holds the start
    stays put.
    """
    pull = problem.utilities.leads - np.asarray(problem.start)
    total = 0.0
    for run in runs:
        if 0 not in run:
            total += 0.5 * len(run) * float(np.sum(pull[run].mean(axis=0) ** 2))
    return total


class TestRigidRunBound:
    """The squared rows' second bound, at its limiting cases.

    From the warm start at zero displacement every cap whose radius is
    positive is free, and the Frank-Wolfe gap ``sum_t r_t |g_t|`` of the huge
    radii here dwarfs the rigid-run bound, so each row's gap is that bound.
    """

    def test_all_caps_free_gives_the_unconstrained_shortfall(self):
        problem = _free_chain([1e3] * 7)
        lock = _Lockstep([problem], [None])
        with np.errstate(all="raise"):
            lock.certify(lock.z0, lock.u0, GAP_TOL)
        pull = problem.utilities.leads[1:] - np.asarray(problem.start)
        assert lock.gaps[0] == pytest.approx(0.5 * float(np.sum(pull**2)), rel=1e-12)

    def test_all_caps_filled_gives_the_frank_wolfe_gap(self):
        problem = _free_chain([0.5] * 7)
        # every warm-start step is longer than its cap, so the clamp fills each cap
        x0 = [(3.0 * t, -2.0 * t) for t in range(8)]
        lock = _Lockstep([problem], [x0])
        z = lock.z0
        assert np.all(np.hypot(z[0, :, 0], z[0, :, 1]) >= 0.5 * (1.0 - 1e-9))
        with np.errstate(all="raise"):
            lock.certify(z, lock.values(z), GAP_TOL)
        x, fw = _reference_fw_gap(problem, z[0])
        assert lock.gaps[0] == pytest.approx(fw, rel=1e-12)
        tight = solve_offline(problem, tol=1e-12)
        assert tight.utility - problem.utilities.total(x) <= lock.gaps[0] + _rounding(tight.utility)

    @pytest.mark.parametrize(
        "radii, runs",
        [
            ([1e3, 0.0, 1e3, 1e3, 0.0, 0.0, 1e3], [[0], [1, 2], [3], [4, 5, 6], [7]]),
            ([0.0, 0.0, 1e3, 1e3, 1e3, 1e3, 0.0], [[0, 1, 2], [3], [4], [5], [6, 7]]),
        ],
    )
    def test_a_real_zero_radius_cap_joins_its_slots_and_a_padded_one_does_not(self, radii, runs):
        # the same row solo and padded by a longer one: the padded caps have
        # radius zero too, but they never freeze, so the row's last run stays
        # its own; here the bound is the exact shortfall
        problem = _free_chain(radii)
        longer = _free_chain([1e3] * 11)
        want = _rigid_run_shortfall(problem, runs)
        with np.errstate(all="raise"):
            solo = _Lockstep([problem], [None])
            solo.certify(solo.z0, solo.u0, GAP_TOL)
            batch = _Lockstep([problem, longer], [None, None])
            batch.certify(batch.z0, batch.u0, GAP_TOL)
        assert solo.gaps[0] == batch.gaps[0] == pytest.approx(want, rel=1e-12)
        tight = solve_offline(problem, tol=1e-12)
        shortfall = tight.utility - problem.utilities.total([problem.start] * problem.horizon)
        assert shortfall == pytest.approx(want, rel=1e-6)


class TestWorkspace:
    """The ascent runs on the lockstep's preallocated arrays and keeps every bit.

    The pins were taken when every step still allocated its arrays.
    """

    def test_restart_chain_is_pinned_bit_for_bit(self):
        assert _pin(solve_offline(_restart_chain(), tol=1e-9)) == (
            20, 1, "4.894322191972833e-07", True,
            "5e3cf89e8998dc5106d97abd462f3e643359b45129c8ac433b39bfd0a0bbdd16",
        )

    def test_padded_voyage_batch_is_pinned_bit_for_bit(self):
        # six rows of differing horizons leave the lockstep at six different checks
        rows = [(40, 11), (30, 1), (7, 2), (2, 3), (19, 4), (25, 6)]
        instances = [_random_problem("voyage", T, seed) for T, seed in rows]
        solutions = solve_offline_batch([p for p, _ in instances], [x0 for _, x0 in instances])
        assert [_pin(s) for s in solutions] == [
            (100, 0, "2.1428160499222693", True,
             "5074f2257effdb89c089d522d55f77a25b526b2b594dd475392117a137c399a8"),
            (160, 0, "0.3194589235705043", True,
             "664bc401bf7e86d0b4e574c8039a6a9f6390c2f60e6cc564d61459da58d1f4e3"),
            (20, 0, "0.06335598269698567", True,
             "c60665916a623f90630111474483304c345c578fdd136212f35d2cb0dba152c5"),
            (10, 2, "6.187954038061605e-09", True,
             "24dfd86d581ce6035c929d43c062392c25e987946f594d91ce274d7af181f81b"),
            (70, 0, "0.3626147113405429", True,
             "d594c8b71a304659dbf958836415cf6b1725280a5640c2fd6dc656eb26e8d3d6"),
            (50, 0, "0.5868317691766849", True,
             "fdf9d09c183e7a8cef623ef449925452e78f5a4c6a718bb6d77a818e3f1337c1"),
        ]

    @pytest.mark.parametrize("kind", ["squared", "huber", "voyage"])
    def test_chained_calls_match_a_fresh_lockstep(self, kind):
        # each call's result feeds the next; one that handed back, or later
        # wrote into, a workspace array would change what an earlier call gave
        instances = [_random_problem(kind, T, seed) for T, seed in ((30, 1), (7, 2), (19, 4))]
        problems, x0s = [p for p, _ in instances], [x0 for _, x0 in instances]
        lock = _Lockstep(problems, x0s)
        steps = [lock.z0]
        for _ in range(5):
            steps.append(lock.ascent_step(steps[-1]))
        kept = [z.copy() for z in steps]
        totals = lock.values(steps[-1])
        met = lock.certify(steps[-1], totals, GAP_TOL)
        assert all(z.tobytes() == k.tobytes() for z, k in zip(steps, kept))
        fresh = _Lockstep(problems, x0s)
        assert fresh.z0.tobytes() == kept[0].tobytes()
        for before, after in zip(kept, kept[1:]):
            assert fresh.ascent_step(before.copy()).tobytes() == after.tobytes()
        assert fresh.values(kept[-1].copy()) == totals
        assert fresh.certify(kept[-1].copy(), totals, GAP_TOL) == met
        assert fresh.gaps == lock.gaps


class TestBoxBindingSolves:
    def test_restoration_reaches_the_corner_optimum(self):
        # the far lead pulls the second waypoint to the corner where the cap's
        # circle meets the box floor y = 0, at x = -sqrt(1 - 0.28^2) = -0.96; a
        # projection that stops at its first feasible iterate ends near -0.93
        us = CommuteUtilities([(0.0, 0.28), (-7.6, -8.86)], 1.0, 1e-3, "squared")
        box = Box2D((-10.0, 0.0), (10.0, 10.0))
        sol = solve_offline(OfflineProblem((0.0, 0.28), us, [(0.0, 0.0)], [1.0], box), tol=1e-9)
        assert sol.converged and sol.max_violation <= 1e-6
        assert sol.points[1] == pytest.approx((-0.96, 0.0), abs=1e-7)

    @pytest.mark.parametrize("lead", [(-5.0, 5.0), (-1.0, 5.0), (0.0, 5.0), (-20.0, 5.0)])
    def test_cap_that_forbids_staying_put_is_not_certified_early(self, lead):
        # staying put breaks the second cap (center (-2, 0), radius 1), so the
        # retraction cannot make every round's iterate feasible; the solve must
        # go on until one is, not stop on a gap clamped to zero
        us = CommuteUtilities([lead] * 3, 1.0, 1e-3, "squared")
        problem = OfflineProblem((1.0, 5.0), us, [(0, 0), (-2, 0)], [1.0, 1.0], TEN_BOX)
        sol = solve_offline(problem)
        assert sol.converged and sol.max_violation <= 1e-9
        assert 0.0 <= sol.gap <= 1e-3 * max(1.0, sol.utility - us.total([(1.0, 5.0)] * 3))
        # the optimum: the box floor x >= 0 and the second cap pin x1 = 1, x2 = 0
        best = [(1.0, 5.0), (1.0, 5.0), (0.0, 5.0)]
        assert np.max(np.abs(np.subtract(sol.points, best))) <= 1e-5
        assert us.total(best) - sol.utility <= sol.gap + _rounding(sol.utility)

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["squared", "huber", "voyage"]),
        T=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_restoration_matches_the_oracle(self, kind, T, seed):
        problem = _box_binding_problem(kind, T, seed)
        free = solve_offline(replace(problem, region=BIG_BOX))
        x = np.array(free.points)
        assume(_violation(x, problem.start, problem.centers, problem.radii, problem.region)[0] > 1e-6)
        sol = solve_offline(problem, tol=1e-9)
        lo, hi = problem.region.lo, problem.region.hi
        oracle = dp_oracle(problem, OracleGrid(lo, hi, 31, 31))
        assert sol.converged and sol.max_violation <= 1e-6
        assert sol.utility >= oracle.utility - 1e-6 * (1.0 + abs(oracle.utility))


class TestSolveOfflineBatch:
    def test_boxed_row_takes_the_restoration_path(self):
        problem = _boxed_problem(5)
        free = solve_offline(replace(problem, region=BIG_BOX))
        cons = (problem.start, problem.centers, problem.radii, problem.region)
        assert _violation(np.array(free.points), *cons)[0] > 1e-9
        sol = solve_offline(problem)
        assert sol.converged and math.isfinite(sol.gap) and sol.gap >= 0.0
        assert _violation(np.array(sol.points), *cons)[0] <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["squared", "huber", "voyage"]),
                st.integers(1, 40),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=6,
        ),
        boxed_at=st.integers(0, 8),
        max_iter=st.sampled_from([0, 1, 5, 7, 25, 100_000]),
    )
    def test_lockstep_rows_equal_solo_solves(self, rows, boxed_at, max_iter):
        # T = 1 and T = 2 rows of every family ride along in every batch
        rows = rows + [(kind, T, 7) for kind in ("squared", "huber", "voyage") for T in (1, 2)]
        instances = [_random_problem(*row) for row in rows]
        instances.insert(boxed_at % (len(instances) + 1), (_boxed_problem(5), None))
        problems = [p for p, _ in instances]
        x0s = [x0 for _, x0 in instances]
        with np.errstate(all="raise"):
            batch = solve_offline_batch(problems, x0s, max_iter=max_iter)
            solo = [solve_offline(p, x0=x0, max_iter=max_iter) for p, x0 in instances]
        assert [_outcome(s) for s in batch] == [_outcome(s) for s in solo]


class TestScheduledChecks:
    """A row checks its gap when the trend of its gaps says the check can pass."""

    @pytest.mark.parametrize(
        "iteration, ratio, last, due",
        [
            (0, 50.0, None, 10),  # no earlier check
            (10, 50.0, (0, 50.0), 20),  # the ratio did not fall
            (10, 60.0, (0, 50.0), 20),  # it rose
            (30, 6.0, (20, 12.0), 50),  # 1 is 25.8 iterations ahead: two waits
            (30, 1.5, (20, 100.0), 40),  # 1 iteration ahead: still one wait
            (30, 1e6, (20, 2e6), 70),  # 199 iterations ahead: four waits at most
            (30, 2.0, (20, 2.0000000000000004), 70),  # the least fall there is
            (30, 3.0, (20, math.inf), 40),  # a fall from inf is as steep as can be
            (30, math.inf, (20, math.inf), 40),
            (30, math.nan, (20, 4.0), 40),
            (30, 3.0, (20, math.nan), 40),
            (30, 0.5, (20, 4.0), 40),  # a passing ratio never extrapolates
        ],
    )
    def test_next_check_extrapolates_the_log_of_the_ratio(self, iteration, ratio, last, due):
        assert _next_check(iteration, ratio, last) == due

    @given(
        iteration=st.integers(0, 10**9).map(lambda k: k * GAP_EVERY),
        ratio=st.floats(allow_nan=True, allow_infinity=True),
        last=st.none() | st.tuples(st.integers(0, 10**9), st.floats(allow_nan=True)),
    )
    def test_next_check_waits_whole_multiples_within_the_cap(self, iteration, ratio, last):
        if last is not None:
            last = (iteration - GAP_EVERY * (1 + last[0] % 50), last[1])
        wait = _next_check(iteration, ratio, last) - iteration
        assert wait in [GAP_EVERY * k for k in range(1, metrics._MAX_WAIT + 1)]

    @pytest.mark.parametrize("max_iter", [7, 25])
    def test_the_max_iter_check_runs_between_scheduled_checks(self, monkeypatch, max_iter):
        problem, x0 = _random_problem("huber", 40, 3)
        seen = []

        def spy(iteration, ratio, last):
            seen.append(iteration)
            return _next_check(iteration, ratio, last)

        monkeypatch.setattr(metrics, "_next_check", spy)
        sol = solve_offline(problem, x0=x0, max_iter=max_iter, tol=1e-12)
        assert not sol.converged and sol.iterations == max_iter
        assert seen[-1] == max_iter and sol.checks == len(seen)
        assert all(k % GAP_EVERY == 0 for k in seen[:-1])

    def test_rows_due_at_different_iterations_equal_solo_solves(self, monkeypatch):
        instances = [_random_problem(kind, T, seed) for kind, T, seed in (
            ("huber", 40, 3), ("huber", 25, 8), ("huber", 12, 5), ("huber", 33, 21),
        )]
        calls = []
        certify = _Lockstep.certify

        def counting(self, z, totals, tol):
            calls.append(len(self.ids))
            return certify(self, z, totals, tol)

        monkeypatch.setattr(_Lockstep, "certify", counting)
        with np.errstate(all="raise"):
            batch = solve_offline_batch([p for p, _ in instances], [x0 for _, x0 in instances])
        lockstep_checks = len(calls)
        solo = [solve_offline(p, x0=x0) for p, x0 in instances]
        assert [_outcome(s) for s in batch] == [_outcome(s) for s in solo]
        assert all(s.converged for s in batch)
        # the batch ran checks at which its longest-running row was not due
        assert lockstep_checks > max(s.checks for s in batch)
        assert len({s.iterations for s in batch}) > 1

    def test_reused_terms_equal_fresh_slot_terms_after_a_restart(self, monkeypatch):
        # a check every iteration; the chain's row restarts where the other row
        # does not, so the restart test leaves the restarted point of both rows.
        # The Newton finish, off here, certifies the chain before its restart
        _without_newton_finish(monkeypatch)
        monkeypatch.setattr(metrics, "GAP_EVERY", 1)
        monkeypatch.setattr(metrics, "_MAX_WAIT", 1)
        events = []
        values, certify = _Lockstep.values, _Lockstep.certify

        def spy_values(self, z, rows=None):
            events.append("restart" if rows is not None and len(rows) < len(self.ids) else "values")
            return values(self, z, rows)

        def spy_certify(self, z, totals, tol):
            held_x, held_terms = self.x.copy(), self.terms.copy()
            fresh_x = self.rebuild(z).copy()
            fresh_terms = self.family.slot_terms(fresh_x)
            same_x = held_x.tobytes() == fresh_x.tobytes()
            events.append(same_x and held_terms.tobytes() == fresh_terms.tobytes())
            return certify(self, z, totals, tol)

        monkeypatch.setattr(_Lockstep, "values", spy_values)
        monkeypatch.setattr(_Lockstep, "certify", spy_certify)
        other, x0 = _random_problem("squared", 40, 3)
        sols = solve_offline_batch([_restart_chain(), other], [None, x0], tol=1e-12)
        assert sols[0].restarts > 0 and sols[0].checks == sols[0].iterations + 1
        checks = [e for e in events if isinstance(e, bool)]
        assert checks and all(checks)
        after_restart = [
            events[i] for i in range(len(events))
            if isinstance(events[i], bool) and "restart" in events[max(0, i - 3):i]
        ]
        assert after_restart and all(after_restart)


def _huber_commute_124():
    """The stock commute as a Huber commute with 100 slack slots (T = 124): its episode."""
    doc = json.loads((CONFIGS / "commute.json").read_text(encoding="utf-8"))
    doc["d2d"]["utility"] = "huber"
    doc["delta_slots"] = 100
    return run_scenario(parse_config_doc(doc), benchmark=False)


def _c02_episode(T: int):
    """Acceptance criterion c02's noisy squared commute at horizon ``T``."""
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
    return run_scenario(cfg, benchmark=False)


def _ref_pin(sol) -> tuple:
    """:func:`_pin` and the check count."""
    return _pin(sol) + (sol.checks,)


def _assert_reference_solves(problems, x0s, **kwargs):
    """``solve_offline_batch`` and each row's ``solve_offline`` equal the reference ascent's."""
    want = [_ref_pin(s) for s in ascent_reference.solve_offline_batch(problems, x0s, **kwargs)]
    assert [_ref_pin(s) for s in solve_offline_batch(problems, x0s, **kwargs)] == want
    solo = [solve_offline(p, x0=x0, **kwargs) for p, x0 in zip(problems, x0s)]
    assert [_ref_pin(s) for s in solo] == want
    return want


def _proof_checked(seen: list):
    """:meth:`_Lockstep.rose`, checking each step it proves by the computed totals.

    Such a step's total at ``z_new`` must not lie below the total at ``z``
    in any row.  Computing them leaves the waypoints and slot terms at
    ``z_new``, which the ascent computes afresh before it reads them.
    ``seen`` collects the results, one per step.
    """
    rose = _Lockstep.rose

    def checked(self, z, y, z_new, margins):
        proved = rose(self, z, y, z_new, margins)
        if proved:
            before, after = self.values(z), self.values(z_new)
            assert all(a >= b for a, b in zip(after, before)), (before, after)
        seen.append(proved)
        return proved

    return checked


@pytest.fixture
def rose_checked(monkeypatch):
    """The steps' ``rose`` results, each proved step checked by :func:`_proof_checked`."""
    seen: list = []
    monkeypatch.setattr(_Lockstep, "rose", _proof_checked(seen))
    return seen


class TestCertifiedRestart:
    """The ascent computes its totals only where the descent lemma leaves a step unsure.

    Every solve equals the reference ascent, which computes them every step
    (``tests/ascent_reference.py``), in iterations, restarts, checks, gap and
    waypoints.
    """

    @pytest.mark.parametrize(
        "kind, T, seed", [("squared", 60, 1), ("huber", 128, 2), ("voyage", 90, 3), ("huber", 40, 3)]
    )
    def test_solo_rows_equal_the_reference(self, rose_checked, kind, T, seed):
        problem, x0 = _random_problem(kind, T, seed)
        (pin,) = _assert_reference_solves([problem], [x0])
        assert pin[0] > 0 and rose_checked.count(True) > rose_checked.count(False)

    def test_padded_voyage_batch_equals_the_reference(self, rose_checked):
        rows = [(40, 11), (30, 1), (7, 2), (2, 3), (19, 4), (25, 6)]
        instances = [_random_problem("voyage", T, seed) for T, seed in rows]
        pins = _assert_reference_solves([p for p, _ in instances], [x0 for _, x0 in instances])
        assert len({pin[0] for pin in pins}) == len(rows)
        assert any(pin[1] > 0 for pin in pins)

    def test_restart_chain_takes_the_restart_branch_as_the_reference(self, rose_checked):
        (pin,) = _assert_reference_solves([_restart_chain()], [None], tol=1e-9)
        assert pin[1] > 0 and False in rose_checked

    def test_c02_instance_equals_the_reference(self, rose_checked):
        report = _c02_episode(1024)
        (pin,) = _assert_reference_solves([report.problem], [report.trajectory])
        assert pin[3] and rose_checked

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["squared", "huber", "voyage"]),
        rows=st.lists(
            st.tuples(st.integers(2, 60), st.integers(0, 2**32 - 1)), min_size=1, max_size=4
        ),
        max_iter=st.sampled_from([3, 25, 100_000]),
    )
    def test_batches_equal_the_reference(self, kind, rows, max_iter):
        instances = [_random_problem(kind, T, seed) for T, seed in rows]
        with np.errstate(all="raise"):
            _assert_reference_solves(
                [p for p, _ in instances], [x0 for _, x0 in instances], max_iter=max_iter
            )

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["squared", "huber", "voyage"]),
        rows=st.lists(
            st.tuples(st.integers(2, 60), st.integers(0, 2**32 - 1)), min_size=1, max_size=4
        ),
    )
    def test_a_proved_step_never_lowers_a_computed_total(self, kind, rows):
        # a tight stop runs the rows on to where their steps gain little
        instances = [_random_problem(kind, T, seed) for T, seed in rows]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Lockstep, "rose", _proof_checked([]))
            solve_offline_batch(
                [p for p, _ in instances], [x0 for _, x0 in instances], max_iter=3000, tol=1e-9
            )

    def test_the_totals_run_only_at_checks_and_unsure_steps(self, monkeypatch):
        values, rose = _Lockstep.values, _Lockstep.rose
        calls, proofs = [], []

        def counting_values(self, z, rows=None):
            calls.append(rows)
            return values(self, z, rows)

        def counting_rose(self, z, y, z_new, margins):
            proofs.append(rose(self, z, y, z_new, margins))
            return proofs[-1]

        report = _huber_commute_124()
        monkeypatch.setattr(_Lockstep, "values", counting_values)
        monkeypatch.setattr(_Lockstep, "rose", counting_rose)
        sol = solve_offline(report.problem, x0=report.trajectory)
        assert sol.converged and sol.restarts == 0 and len(proofs) == sol.iterations
        # one call at the start stands for iteration 0's check; each later
        # check computes at most one, and an unsure step at most two
        assert len(calls) <= sol.checks + 2 * proofs.count(False)
        assert len(calls) < sol.iterations / 2


def _huber_commute(T: int, seed: int, utility: str = "huber"):
    """A commute of horizon ``T`` whose peer walks at twice the cap and crosses back."""
    straight = round(0.43 * T)
    d = straight / math.sqrt(2.0)
    cfg = ScenarioConfig(
        kind="d2d",
        start=(0.0, 0.0),
        goal=PathSpec((d, d), (d, d)),
        peer=PathSpec((0.18 * T, -0.07 * T), (0.35 * T, 0.17 * T), speed_mps=2.0),
        peer_noise_std_m=1.0,
        delta=T - straight,
        v_max_mps=1.0,
        utility_kind=utility,
        mu=0.001,
        gradient_noise=NoiseModel("gaussian_decaying", 0.1, 1.0, seed + 1),
        seed=seed,
    )
    return run_scenario(cfg, benchmark=False)


def _dense_kkt(hess, grad, w, phi, nu, active):
    """The system :func:`_kkt_solve` solves, as a dense matrix solved by ``np.linalg.solve``."""
    T = len(grad)
    caps = np.flatnonzero(active)
    n = 2 * (T - 1) + len(caps)
    K, rhs = np.zeros((n, n)), np.zeros(n)
    col = {t: 2 * (T - 1) + i for i, t in enumerate(caps)}
    nu = np.where(active, nu, 0.0)
    for s in range(1, T):
        rows = slice(2 * s - 2, 2 * s)
        a, b, c = hess[s]
        K[rows, rows] = [[a, b], [b, c]]
        rhs[rows] = -grad[s]
        for t, sign in ((s - 1, -1.0), (s, 1.0)):
            if t in col:
                K[rows, rows] -= nu[t] * np.eye(2)
                K[rows, col[t]] = sign * w[t]
                other = s + 1 if sign > 0 else s - 1
                if other >= 1:
                    K[rows, 2 * other - 2 : 2 * other] = nu[t] * np.eye(2)
    for t, i in col.items():
        K[i, 2 * t : 2 * t + 2] = -w[t]
        if t >= 1:
            K[i, 2 * t - 2 : 2 * t] = w[t]
        rhs[i] = phi[t]
    sol = np.linalg.solve(K, rhs)
    dx = np.vstack((np.zeros(2), sol[: 2 * (T - 1)].reshape(-1, 2)))
    nu_new = np.zeros(T - 1)
    nu_new[caps] = sol[2 * (T - 1) :]
    return dx, nu_new


class TestNewtonFinish:
    """Once a row's binding caps settle, active-set Newton steps on its KKT system finish it."""

    @settings(max_examples=60, deadline=None)
    @given(
        T=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        binding=st.floats(0.0, 1.0),
    )
    def test_kkt_solve_equals_a_dense_solve(self, T, seed, binding):
        rng = np.random.default_rng(seed)
        # negative definite blocks of each family's kinds: -I, -2 lam I and a Huber far block
        kinds = rng.integers(3, size=T)
        d = rng.normal(size=(T, 2))
        n = np.hypot(d[:, 0], d[:, 1])
        k = rng.uniform(0.1, 1.0, T) / n**3
        mu = rng.uniform(1e-3, 1.0, T)
        lam = rng.uniform(0.05, 1.0, T)
        hess = np.where(
            (kinds == 0)[:, None], [-1.0, 0.0, -1.0],
            np.where(
                (kinds == 1)[:, None],
                np.column_stack((-2.0 * lam, 0.0 * lam, -2.0 * lam)),
                np.column_stack(
                    (-mu - k * d[:, 1] ** 2, k * d[:, 0] * d[:, 1], -mu - k * d[:, 0] ** 2)
                ),
            ),
        )
        grad = rng.normal(size=(T, 2))
        w = rng.normal(size=(T - 1, 2))
        phi = rng.normal(scale=0.1, size=T - 1)
        nu = rng.uniform(0.0, 2.0, T - 1) * (rng.random(T - 1) < 0.8)
        active = rng.random(T - 1) < binding
        got = _kkt_solve(hess, grad, w, phi, nu, active)
        want = _dense_kkt(hess, grad, w, phi, nu, active)
        assert got is not None
        for g, ref in zip(got, want):
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(g - ref)) <= 1e-10 * scale, (g, ref)
        assert got[0][0].tolist() == [0.0, 0.0]
        assert (got[1][~active] == 0.0).all()

    def test_singular_pivots_fail_the_solve(self):
        hess = np.array([[-1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, -1.0]])
        grad, w, phi = np.ones((3, 2)), np.ones((2, 2)), np.zeros(2)
        # a zero goal weight on a slot no binding cap holds
        assert _kkt_solve(hess, grad, w, phi, np.zeros(2), np.array([False, False])) is None
        assert _kkt_solve(hess, grad, w, phi, np.ones(2), np.array([True, False])) is not None
        # a binding cap of zero radius, whose displacement is zero
        hess[1] = [-1.0, 0.0, -1.0]
        both = np.array([True, True])
        assert _kkt_solve(hess, grad, np.zeros((2, 2)), phi, np.ones(2), both) is None

    @pytest.mark.parametrize("kind", ["squared", "huber", "voyage"])
    def test_hessian_blocks_are_the_gradients_derivatives(self, kind):
        problem, _ = _random_problem(kind, 30, 4)
        us = problem.utilities
        rng = np.random.default_rng(5)
        # points both within and beyond v of the Huber leads
        x = rng.normal(0.0, 2.0, (30, 2))
        if kind != "voyage":
            x += us.leads
        h, eps = us.hessian_blocks(x), 1e-6
        for axis, (first, second) in enumerate(((0, 1), (1, 2))):
            step = np.zeros(2)
            step[axis] = eps
            dg = (us.gradient_array(x + step) - us.gradient_array(x - step)) / (2.0 * eps)
            assert np.allclose(dg[:, 0], h[:, first], atol=1e-6)
            assert np.allclose(dg[:, 1], h[:, second], atol=1e-6)

    @pytest.mark.parametrize("T, seed", [(128, 1), (128, 2), (96, 3), (124, 0)])
    def test_the_finish_is_certified_inside_the_caps(self, monkeypatch, T, seed):
        report = _huber_commute_124() if seed == 0 else _huber_commute(T, seed)
        problem = report.problem
        finish, seen = _Lockstep.finish, []

        def spy(self, j, z, total, tol):
            seen.append((total, self.u0[j]))
            return finish(self, j, z, total, tol)

        monkeypatch.setattr(_Lockstep, "finish", spy)
        sol = solve_offline(problem, x0=report.trajectory)
        assert len(seen) == 1 and 1 <= sol.newton_solves <= 3
        (total, u0), x = seen[0], np.array(sol.points)
        # every cap holds to 1e-9, the start is pinned and the stop is met
        w = x[1:] - x[:-1] - problem.centers
        assert np.max(np.hypot(w[:, 0], w[:, 1]) - problem.radii) <= 1e-9
        assert sol.max_violation <= 1e-9 and sol.points[0] == problem.start
        assert sol.converged and sol.gap <= GAP_TOL * max(1.0, sol.utility - u0)
        assert sol.utility >= total
        # it stops the ascent before the ascent alone would stop
        _without_newton_finish(monkeypatch)
        alone = solve_offline(problem, x0=report.trajectory)
        assert sol.iterations < alone.iterations and alone.newton_solves == 0
        assert sol.gap < alone.gap and sol.utility > alone.utility

    @pytest.mark.parametrize("wrong", ["none", "all", "total"])
    def test_a_failed_attempt_leaves_the_ascent_as_it_is(self, monkeypatch, wrong):
        # a wrong binding set needs a second solve, which one solve per attempt
        # forbids; an unreachable total fails every certification instead
        report = _huber_commute(128, 1)
        instances = [(report.problem, report.trajectory), _random_problem("huber", 40, 3)]
        problems, x0s = [p for p, _ in instances], [x0 for _, x0 in instances]
        finish, results = _Lockstep.finish, []

        def forced(self, j, z, total, tol):
            caps = len(self.binding[j])
            if wrong != "total":
                self.binding[j] = bytes(caps) if wrong == "none" else b"\x01" * caps
            results.append(finish(self, j, z, math.inf if wrong == "total" else total, tol))
            return results[-1]

        with monkeypatch.context() as m:
            if wrong != "total":
                m.setattr(metrics, "_NEWTON_SOLVES", 1)
            m.setattr(_Lockstep, "finish", forced)
            failed = solve_offline_batch(problems, x0s)
            failed_solo = solve_offline(report.problem, x0=report.trajectory)
        _without_newton_finish(monkeypatch)
        alone = solve_offline_batch(problems, x0s)
        # every attempt failed, in the batch and alone, each after its solves
        assert results and not any(results) and len(results) % 2 == 0
        solves = metrics._NEWTON_SOLVES if wrong == "total" else 1
        assert failed[0].newton_solves == failed_solo.newton_solves == solves * len(results) // 2
        # only the counts of the finish's work differ from the ascent alone
        assert [_outcome(s)[:-2] for s in failed + [failed_solo]] == [
            _outcome(s)[:-2] for s in alone + alone[:1]
        ]
        assert failed[1].checks == alone[1].checks and failed[1].newton_solves == 0
        extra = failed_solo.checks - alone[0].checks
        assert failed[0].checks - alone[0].checks == extra and (extra > 0) == (wrong == "total")

    def test_finished_rows_equal_solo_solves(self):
        reports = [_huber_commute(T, seed) for T, seed in ((128, 1), (96, 2), (64, 4))]
        instances = [(r.problem, r.trajectory) for r in reports]
        instances += [_random_problem("huber", T, seed) for T, seed in ((40, 3), (25, 8), (60, 19))]
        problems, x0s = [p for p, _ in instances], [x0 for _, x0 in instances]
        with np.errstate(all="raise"):
            batch = solve_offline_batch(problems, x0s)
            solo = [solve_offline(p, x0=x0) for p, x0 in instances]
        assert [_outcome(s) for s in batch] == [_outcome(s) for s in solo]
        assert sum(s.newton_solves > 0 and s.converged for s in batch) >= 3

    # the instances among 300 (100 seeds per kind, T = 5 + 7 seed mod 56) on
    # which a finish started and failed at its first, singular, solve
    @pytest.mark.parametrize("kind, T, seed", [
        ("squared", 47, 14), ("squared", 47, 22), ("squared", 40, 29), ("squared", 19, 66),
        ("huber", 12, 65), ("huber", 26, 75), ("huber", 19, 90),
        ("voyage", 33, 28), ("voyage", 26, 35), ("voyage", 47, 46), ("voyage", 40, 53),
        ("voyage", 47, 54), ("voyage", 19, 74), ("voyage", 12, 81),
    ])
    def test_a_zero_radius_cap_never_starts_the_finish(self, monkeypatch, kind, T, seed):
        problem, x0 = _random_problem(kind, T, seed)
        assert not problem.radii.all()
        sol = solve_offline(problem, x0=x0)
        _without_newton_finish(monkeypatch)
        alone = solve_offline(problem, x0=x0)
        assert sol.newton_solves == 0
        assert repr(_outcome(sol)) == repr(_outcome(alone))

    def test_long_squared_commutes_and_voyage_sweeps_never_start_the_finish(self, monkeypatch):
        # their gaps reach the stop before the trend asks for the finish
        calls = []
        monkeypatch.setattr(_Lockstep, "finish", lambda self, j, z, total, tol: calls.append(j))
        report = _huber_commute(2048, 1, "squared")
        solve_offline(report.problem, x0=report.trajectory)
        cfg = parse_config_doc(json.loads((CONFIGS / "voyage.json").read_text(encoding="utf-8")))
        run_sweep(cfg, "delta", [float(d) for d in range(0, 90, 9)])
        assert calls == []
