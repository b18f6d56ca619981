import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trajsim import objectives as obj
from trajsim.errors import GridTooCoarse, HorizonMismatch
from trajsim.field import UniformSpec, synth_field
from trajsim.geom import dist, dot, left_sum, norm_sq, sub
from trajsim.metrics import (
    GAP_TOL,
    OfflineProblem,
    OracleGrid,
    _finish,
    _Lockstep,
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
from trajsim.sets import Box2D

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
        sol = _finish(self.problem(), (np.array(pts), 7, 2, 0.5, True), None, 100, GAP_TOL)
        assert sol.points == pts
        assert sol.max_violation == worst
        assert not sol.converged
        assert sol.warning == f"final violation {worst:.3e} above 1e-6"
        assert (sol.iterations, sol.restarts, sol.gap) == (7, 2, 0.5)

    def test_feasible_solution_is_certified(self):
        pts = [(1.0, 5.0), (2.0, 5.0), (0.5, 5.0)]
        sol = _finish(self.problem(), (np.array(pts), 7, 2, 0.5, True), None, 100, GAP_TOL)
        assert sol.points == pts
        assert sol.converged and sol.max_violation == 0.0 and sol.warning is None
        assert sol.gap == 0.5

    def test_unmet_gap_is_not_converged(self):
        pts = [(1.0, 5.0), (2.0, 5.0), (0.5, 5.0)]
        sol = _finish(self.problem(), (np.array(pts), 100, 2, 0.5, False), None, 100, GAP_TOL)
        assert not sol.converged and sol.gap == 0.5 and sol.warning is None

    def test_box_excess_hands_the_row_to_restoration(self):
        pts = [(1.0, 5.0), (1.0, 5.0), (-1.0, 5.0)]
        ascent = (np.array(pts), 7, 2, 0.5, True)
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


def _outcome(sol):
    return (
        sol.points, sol.utility, sol.iterations, sol.restarts,
        sol.converged, sol.warning, sol.max_violation, sol.gap,
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
        max_iter=st.sampled_from([0, 1, 10, 100_000]),
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
        at_gradient = us.fenchel_young(x, grad, np.zeros_like(x))
        residual = us.fenchel_young(x, grad, delta)
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
        assert zero.utilities.fenchel_young(None, None, np.zeros((12, 2)))[5] == math.inf

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
        max_iter=st.sampled_from([0, 1, 5, 100_000]),
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
