import ast
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trajsim
from trajsim import objectives as obj
from trajsim.errors import EmptyStepInterval, RootExistence
from trajsim.geom import dist, norm

import episode_reference as ref
from episode_reference import EDGE_FLOATS, outcome
from gradient_reference import d2d_gradient_piecewise

unit = st.floats(0.0, 1.0, allow_nan=False)
coords = st.floats(-20.0, 20.0, allow_nan=False)
points = st.tuples(coords, coords)
# edge floats among plain ones that pass the range checks
edgy = st.sampled_from(EDGE_FLOATS) | st.floats()
mixed = edgy | st.floats(0.0, 4.0)


def voyage_weights(eta, theta, beta=0.5, delta=0, T=10):
    """``voyage_weights`` for a current of strength ``eta`` at angle ``theta`` to the heading.

    The agent sits at the origin with its goal along +x, and the historical
    maximum current is 1.
    """
    v_o = (eta * math.cos(theta), eta * math.sin(theta))
    return obj.voyage_weights((10.0, 0.0), (0.0, 0.0), v_o, 1.0, beta, delta, T)


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
        y, d = np.zeros((2, 3)), np.ones((2, 3))
        for lam in (np.array([0.0, 1.5, 0.5]), np.array([0.0, math.nan, 0.5])):
            with pytest.raises(ValueError):
                obj.leading_path(y, d, lam)

    def test_coordinate_arrays_blend_as_points(self):
        rng = np.random.default_rng(3)
        y, d = rng.normal(0.0, 50.0, (2, 4, 2))
        lam = rng.uniform(0.0, 1.0, 4)
        got = obj.leading_path(y.T, d.T, lam)
        want = [obj.leading_path(a, b, w) for a, b, w in zip(y.tolist(), d.tolist(), lam.tolist())]
        assert repr(list(zip(*(c.tolist() for c in got)))) == repr(want)
        # one weight shared by every point
        got = obj.leading_path(y.T, d.T, 0.0)
        assert repr(list(zip(*(c.tolist() for c in got)))) == repr(
            [obj.leading_path(a, b, 0.0) for a, b in zip(y.tolist(), d.tolist())]
        )


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
        for d in (v - 1e-12, v + 1e-12):
            slope = math.hypot(*obj.d2d_gradient((0.0, 0.0), (d, 0.0), v, mu))
            assert abs(slope - v) <= 1e-10

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


class TestFamilySmoothness:
    @pytest.mark.parametrize("kind", ["squared", "huber", "voyage"])
    @settings(max_examples=150, deadline=None)
    @given(
        slots=st.lists(st.tuples(points, points, points, points, unit), min_size=1, max_size=8),
        v=st.floats(0.01, 10.0),
        mu=st.floats(1e-3, 1.0),
    )
    def test_smoothness_is_a_lipschitz_constant_of_the_gradient(self, kind, slots, v, mu):
        # per slot |grad U_t(x) - grad U_t(y)| <= L |x - y|, up to the rounding
        # of the two gradients; the solvers' step sizes rest on it
        leads, xs, ys, currents, lams = (np.array(c, dtype=float) for c in zip(*slots))
        if kind == "voyage":
            family = obj.VoyageUtilities(lams, leads, currents, currents[::-1])
        else:
            family = obj.CommuteUtilities(leads, v, mu, kind)
        gx, gy = family.gradient_array(xs), family.gradient_array(ys)
        change = np.hypot(*(gx - gy).T)
        bound = family.smoothness * np.hypot(*(xs - ys).T)
        rounding = 1e-12 * (1.0 + np.hypot(*gx.T) + np.hypot(*gy.T))
        assert np.all(change <= bound + rounding)


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
    @staticmethod
    def one(x, y, *args):
        """The rate of one pair of positions, through the array form."""
        (got,) = obj.rate(np.array([x]), np.array([y]), *args).tolist()
        return got

    def test_unit_distance_value(self):
        got = self.one((0.0, 0.0), (1.0, 0.0), 2.5, 1.0, 0.2)
        assert got == pytest.approx(math.log2(1.0 + 5.0 / 6.0), rel=1e-12)
        assert got == pytest.approx(0.87447, abs=5e-6)

    def test_far_field_vanishes(self):
        assert self.one((0.0, 0.0), (1e9, 0.0), 2.5, 1.0, 0.2) < 1e-15

    def test_noiseless_limit_is_bandwidth(self):
        got = self.one((0.0, 0.0), (2.0, 0.0), 2.0, 7.0, 1e-15)
        assert got == pytest.approx(7.0, rel=1e-6)

    def test_distance_clamped_near_zero(self):
        x = np.zeros((3, 2))
        y = np.array([[0.0, 0.0], [0.5, -0.5], [1.0, 0.0]])
        at_zero, inside, at_one = obj.rate(x, y, 2.5, 1.0, 0.2).tolist()
        assert at_zero == inside == at_one

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.tuples(edgy, coords), st.tuples(coords, edgy)), min_size=1),
        alpha_p=st.sampled_from([2.5, -2.5, 0.0, 1e3]) | mixed,
        sigma2=st.sampled_from([0.2, 1e-300]),
    )
    def test_array_has_the_per_pair_bits(self, pairs, alpha_p, sigma2):
        x, y = (np.array(side) for side in zip(*pairs))
        want = outcome(lambda: [ref.rate(a, b, alpha_p, 7.0, sigma2) for a, b in pairs])
        assert outcome(lambda: obj.rate(x, y, alpha_p, 7.0, sigma2).tolist()) == want


class TestLambdaSchedules:
    def test_increasing_examples(self):
        assert obj.lambda_increasing(10, 10) == 1.0
        assert obj.lambda_increasing(1, 10) == pytest.approx(0.1)
        assert obj.lambda_increasing(5, 10) == pytest.approx(0.5)

    def test_increasing_over_an_array_of_slots(self):
        T = 37
        got = obj.lambda_increasing(np.arange(1, T + 1), T).tolist()
        assert repr(got) == repr([obj.lambda_increasing(t, T) for t in range(1, T + 1)])
        for slots in (np.arange(0, 3), np.arange(T - 1, T + 2)):
            with pytest.raises(ValueError):
                obj.lambda_increasing(slots, T)
        with pytest.raises(ValueError):
            obj.lambda_increasing(0, T)

    def test_direction_cells(self):
        assert voyage_weights(1.0, 0.0)[0] == pytest.approx(0.0, abs=1e-15)
        assert voyage_weights(0.0, 1.2)[0] == pytest.approx(1.0, abs=1e-12)
        assert voyage_weights(0.5, math.pi / 2)[0] == pytest.approx(0.75, abs=1e-12)

    @staticmethod
    def geometric_weight(d, x_hat, v_o, v_o_max):
        return obj.voyage_weights(d, x_hat, v_o, v_o_max, 0.5, 0, 10)[0]

    def test_geometric_form(self):
        # favorable strong current straight toward the goal
        lam = self.geometric_weight((10.0, 0.0), (0.0, 0.0), (1.0, 0.0), 1.0)
        assert lam == pytest.approx(0.0, abs=1e-15)
        # still water
        assert self.geometric_weight((10.0, 0.0), (0.0, 0.0), (0.0, 0.0), 1.0) == 1.0
        # goal reached: conservative weight
        assert self.geometric_weight((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), 2.0) == 1.0

    def test_strength_clamped(self):
        lam = self.geometric_weight((10.0, 0.0), (0.0, 0.0), (5.0, 0.0), 1.0)
        assert lam == pytest.approx(0.0, abs=1e-15)

    @given(eta=unit, theta=st.floats(0.0, math.pi))
    @settings(max_examples=200, deadline=None)
    def test_weight_range(self, eta, theta):
        assert 0.0 <= voyage_weights(eta, theta)[0] <= 1.0

    @given(
        eta=unit, theta=st.floats(0.0, math.pi), beta=st.floats(0.0, 5.0), delta=st.integers(0, 40)
    )
    @settings(max_examples=200, deadline=None)
    def test_throttle_range(self, eta, theta, beta, delta):
        a = voyage_weights(eta, theta, beta, delta, 40)[1]
        assert 0.0 < a <= 1.0


class TestAlphaSchedule:
    def test_zero_exponent_cases(self):
        assert voyage_weights(1.0, 0.0, beta=0.0, delta=5, T=10)[1] == 1.0
        assert voyage_weights(0.0, math.pi, beta=3.0, delta=0, T=10)[1] == 1.0

    def test_worked_value(self):
        got = voyage_weights(1.0, 0.0, beta=1.0, delta=1, T=10)[1]
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


class TestComparisonClamps:
    """The per-slot clamps written as comparisons give the builtin min/max's bits."""

    @settings(max_examples=400, deadline=None)
    @given(args=st.tuples(mixed, mixed, mixed | unit, unit | mixed, mixed, mixed))
    # a NaN ratio, and a ratio of -0.0 against L = 0.0
    @example(args=(1.0, math.nan, 1.0, 0.5, 1.0, 1.01))
    @example(args=(1.0, -math.inf, 1.0, 0.5, 0.0, 1.01))
    def test_d2d_step_size(self, args):
        assert outcome(obj.d2d_step_size, *args) == outcome(ref.d2d_step_size, *args)

    @settings(max_examples=400, deadline=None)
    @given(
        d=st.tuples(mixed, mixed),
        x=st.tuples(mixed, mixed),
        v_o=st.tuples(mixed, mixed),
        scale=st.none() | mixed | st.floats(-4.0, 0.0),
        v_o_max=mixed,
        beta=st.floats(0.0, 5.0) | mixed,
        delta=st.integers(0, 50),
        T=st.integers(1, 50),
    )
    def test_voyage_weights(self, d, x, v_o, scale, v_o_max, beta, delta, T):
        if scale is not None:  # a current along the heading, where the cosine rounds past 1
            v_o = (scale * (d[0] - x[0]), scale * (d[1] - x[1]))
        args = (d, x, v_o, v_o_max, beta, delta, T)
        assert outcome(obj.voyage_weights, *args) == outcome(ref.voyage_weights, *args)

    @settings(max_examples=400, deadline=None)
    @given(
        args=st.tuples(
            st.tuples(mixed, mixed), st.tuples(edgy | coords, edgy | coords), mixed, mixed, mixed, mixed
        )
    )
    def test_ocean_step_size(self, args):
        assert outcome(obj.ocean_step_size, *args) == outcome(ref.ocean_step_size, *args)


# The functions and methods that no library code references, each with its reason.
UNREFERENCED = {
    "engine.NoiseModel.draw": "bench/replay.py times it per call (ROADMAP item 2)",
    "sets.Box2D.project": "bench/replay.py times it per call (ROADMAP item 2)",
    "engine.normal_pair": "the scalar reference that normal_pairs is tested against",
    "geom.norm": "a test-only helper",
    "geom.norm_sq": "a test-only helper",
}


def _names(tree) -> list[str]:
    """Every name ``tree`` loads or reads as an attribute."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def test_every_exported_formula_runs_in_the_library():
    """Each function ``trajsim`` exports from ``objectives`` is called by another library module.

    A per-slot formula that only the tests call is a second definition of
    what the drivers compute; this keeps the tests checking the one the agent runs.
    Beyond the formulas, every top-level function and method is referenced
    by library code outside its own body, or exported by the package, or
    listed in :data:`UNREFERENCED` with its reason; dunder methods are
    Python's to call.  The scan matches bare names, so a method that shares
    its name with a used attribute passes unseen.
    """
    package = Path(trajsim.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    exported = {
        alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "objectives"
        for alias in node.names
    }
    body = trees["objectives.py"].body
    functions = {node.name for node in body if isinstance(node, ast.FunctionDef)}
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for name, tree in trees.items()
        if name not in ("__init__.py", "objectives.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
    }
    assert exported & functions  # the walk found the exports
    assert sorted((exported & functions) - called) == []

    public = {alias.name for node in trees["__init__.py"].body
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            owner = [node.name] if isinstance(node, ast.ClassDef) else []
            for f in node.body if owner else [node]:
                if not isinstance(f, ast.FunctionDef) or f.name.startswith("__"):
                    continue
                if f.name not in public and uses[f.name] == _names(f).count(f.name):
                    unused.append(".".join([name[:-3], *owner, f.name]))
    assert sorted(unused) == sorted(UNREFERENCED)
