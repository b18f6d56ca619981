from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsim.geom import dist, sub
from trajsim.metrics import _clamp_balls, _dykstra, _project_caps, _violation
from trajsim.sets import Box2D, StepCap, project_box

UNIT_BOX = Box2D((0.0, 0.0), (1.0, 1.0))
BIG_BOX = Box2D((-1e6, -1e6), (1e6, 1e6))

coords = st.floats(-50.0, 50.0, allow_nan=False)
points = st.tuples(coords, coords)


class TestBoxProjection:
    def test_interior_point_fixed(self):
        assert project_box((0.5, 0.5), UNIT_BOX) == (0.5, 0.5)

    def test_componentwise_clamp(self):
        assert project_box((2.0, -1.0), UNIT_BOX) == (1.0, 0.0)

    def test_boundary_point_fixed(self):
        assert project_box((1.0, 1.0), UNIT_BOX) == (1.0, 1.0)

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            Box2D((1.0, 0.0), (0.0, 1.0))

    def test_single_point_box_is_legal(self):
        pin = Box2D((3.0, 4.0), (3.0, 4.0))
        assert project_box((10.0, -10.0), pin) == (3.0, 4.0)


def project_cap(p, cap):
    """Nearest displacement to ``p`` that ``cap`` allows, by the solver's clamp."""
    c = np.asarray(cap.center)
    r = np.array([cap.radius])
    z = _clamp_balls(np.asarray([p], dtype=float) - c, r, np.maximum(r, np.finfo(float).tiny))
    return tuple((z[0] + c).tolist())


@dataclass(frozen=True)
class CapBall:
    """The ball of displacements a step cap allows, projected as the offline solver does."""

    cap: StepCap

    def project(self, p):
        return project_cap(p, self.cap)

    def violation(self, p):
        return max(0.0, dist(p, self.cap.center) - self.cap.radius)


class TestBallProjection:
    def test_inside_identity(self):
        assert project_cap((0.3, 0.4), StepCap(0, (0.0, 0.0), 1.0)) == (0.3, 0.4)

    def test_radial_scaling(self):
        p = project_cap((3.0, 4.0), StepCap(0, (0.0, 0.0), 1.0))
        assert p == pytest.approx((0.6, 0.8), abs=1e-15)

    def test_degenerate_zero_radius(self):
        assert project_cap((0.0, 0.0), StepCap(0, (0.0, 0.0), 0.0)) == (0.0, 0.0)
        assert project_cap((5.0, 0.0), StepCap(0, (2.0, 2.0), 0.0)) == (2.0, 2.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            StepCap(0, (0.0, 0.0), -0.1)


@pytest.mark.parametrize(
    "region",
    [
        UNIT_BOX,
        CapBall(StepCap(0, (1.0, -2.0), 3.0)),
        CapBall(StepCap(0, (0.0, 0.0), 0.0)),
    ],
    ids=["box", "ball", "point-ball"],
)
class TestProjectionProperties:
    @given(p=points)
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, region, p):
        q = region.project(p)
        qq = region.project(q)
        assert dist(q, qq) <= 1e-12

    @given(a=points, b=points)
    @settings(max_examples=150, deadline=None)
    def test_nonexpansive(self, region, a, b):
        pa, pb = region.project(a), region.project(b)
        assert dist(pa, pb) <= dist(a, b) + 1e-12

    @given(p=points)
    @settings(max_examples=150, deadline=None)
    def test_membership(self, region, p):
        assert region.violation(region.project(p)) <= 1e-9


def dykstra(pts, radii, start=None, box=BIG_BOX, centers=None, **kw):
    """The offline solver's Dykstra projection; the start defaults to ``pts[0]``."""
    x = np.asarray(pts, dtype=float)
    start = tuple(x[0]) if start is None else start
    centers = np.zeros((len(x) - 1, 2)) if centers is None else np.asarray(centers, dtype=float)
    return _dykstra(x, start, centers, np.asarray(radii, dtype=float), box, **kw)


def violation(out, radii, start, box=BIG_BOX, centers=None):
    """The solver's largest violation of any constraint by waypoints ``out``."""
    centers = np.zeros((len(out) - 1, 2)) if centers is None else np.asarray(centers, dtype=float)
    return _violation(out, start, centers, np.asarray(radii, dtype=float), box)[1]


class TestDykstra:
    def test_feasible_sequence_unchanged(self):
        pts = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.2)]
        out, residual = dykstra(pts, [1.0, 1.0])
        assert out.tolist() == [list(p) for p in pts]
        assert residual == 0.0
        assert violation(out, [1.0, 1.0], pts[0]) == 0.0

    def test_symmetric_pair_moves_to_midpoint(self):
        # distance 3 apart with cap 1: each endpoint travels exactly 1.0
        pts = np.array([(0.0, 0.0), (3.0, 0.0)])
        out = _project_caps(pts, np.array([0]), np.zeros((1, 2)), np.array([1.0]))
        assert tuple(out[0]) == pytest.approx((1.0, 0.0), abs=1e-12)
        assert tuple(out[1]) == pytest.approx((2.0, 0.0), abs=1e-12)

    def test_random_sequence_meets_caps(self):
        rng = np.random.default_rng(11)
        pts = [tuple(p) for p in rng.uniform(-3, 3, size=(5, 2))]
        out, residual = dykstra(pts, [0.5] * 4, tol=1e-8)
        # oracle: evaluate every constraint on the output directly
        for i in range(4):
            assert dist(tuple(out[i + 1]), tuple(out[i])) <= 0.5 + 1e-6
        assert residual <= 1e-6
        assert violation(out, [0.5] * 4, pts[0]) <= 1e-6

    def test_pinned_start_and_memberships(self):
        pts = [(5.0, 5.0), (6.0, 6.0), (9.0, 9.0)]
        out, residual = dykstra(pts, [1.0, 1.0], start=(0.0, 0.0), box=UNIT_BOX, max_iter=2000)
        assert tuple(out[0]) == pytest.approx((0.0, 0.0), abs=1e-8)
        assert residual <= 1e-8
        assert violation(out, [1.0, 1.0], (0.0, 0.0), UNIT_BOX) <= 1e-8

    def test_projection_optimality_against_grid(self):
        # the returned point must be the nearest feasible sequence, not just
        # a feasible one; check against dense sampling of a 1-D slice
        pts = [(0.0, 0.0), (2.0, 0.0)]
        out, _ = dykstra(pts, [1.0], start=(0.0, 0.0))
        # with x0 pinned, nearest feasible x1 is the cap boundary toward (2,0)
        assert tuple(out[1]) == pytest.approx((1.0, 0.0), abs=1e-8)

    def test_no_convergence_reports_residual(self):
        # impossible: the start is pinned 10 away from the single-point box
        pts = [(0.0, 0.0), (10.0, 0.0)]
        pin_box = Box2D((10.0, 0.0), (10.0, 0.0))
        out, residual = dykstra(pts, [1.0], start=(0.0, 0.0), box=pin_box, max_iter=50)
        assert residual > 0
        assert out.shape == (2, 2)
        assert residual == violation(out, [1.0], (0.0, 0.0), pin_box)

    def test_drift_centered_cap(self):
        # cap centered on a drift vector: feasible displacement is drift +- r;
        # the start pin moves the first waypoint back after each cap
        # projection, so the cap holds only to the projection's tol
        pts = [(0.0, 0.0), (0.0, 0.0)]
        out, _ = dykstra(pts, [0.5], centers=[(2.0, 0.0)], tol=1e-12)
        gap = sub(tuple(out[1]), tuple(out[0]))
        assert dist(gap, (2.0, 0.0)) <= 0.5 + 1e-9
