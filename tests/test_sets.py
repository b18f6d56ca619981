import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajsim.errors import DegenerateSet, NoConvergence
from trajsim.geom import dist, norm, sub
from trajsim.sets import (
    Ball2D,
    Box2D,
    ConvexPolygon2D,
    PointIn,
    StepCap,
    constraint_violation,
    dykstra_project,
    project_ball,
    project_box,
    project_polygon,
)

UNIT_BOX = Box2D((0.0, 0.0), (1.0, 1.0))
UNIT_SQUARE = ConvexPolygon2D.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])

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


class TestBallProjection:
    def test_inside_identity(self):
        assert project_ball((0.3, 0.4), Ball2D((0.0, 0.0), 1.0)) == (0.3, 0.4)

    def test_radial_scaling(self):
        p = project_ball((3.0, 4.0), Ball2D((0.0, 0.0), 1.0))
        assert p == pytest.approx((0.6, 0.8), abs=1e-15)

    def test_degenerate_zero_radius(self):
        assert project_ball((0.0, 0.0), Ball2D((0.0, 0.0), 0.0)) == (0.0, 0.0)
        assert project_ball((5.0, 0.0), Ball2D((2.0, 2.0), 0.0)) == (2.0, 2.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Ball2D((0.0, 0.0), -0.1)


class TestPolygonProjection:
    def test_containment(self):
        assert project_polygon((0.25, 0.75), UNIT_SQUARE) == (0.25, 0.75)

    def test_nearest_edge(self):
        assert project_polygon((2.0, 0.5), UNIT_SQUARE) == pytest.approx((1.0, 0.5), abs=1e-12)

    def test_nearest_vertex(self):
        assert project_polygon((2.0, 2.0), UNIT_SQUARE) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_halfspace_satisfaction(self):
        rng = np.random.default_rng(3)
        tri = ConvexPolygon2D.from_vertices([(0, 0), (4, 1), (1, 5)])
        for _ in range(200):
            p = tuple(rng.uniform(-10, 10, 2))
            q = project_polygon(p, tri)
            assert tri.violation(q) <= 1e-9

    def test_clockwise_vertices_accepted(self):
        cw = ConvexPolygon2D.from_vertices([(0, 1), (1, 1), (1, 0), (0, 0)])
        assert cw.contains((0.5, 0.5))

    def test_degenerate_polygon_raises(self):
        with pytest.raises(DegenerateSet):
            ConvexPolygon2D([])
        # two opposing halfspaces with no overlap
        empty = ConvexPolygon2D([((1.0, 0.0), -1.0), ((-1.0, 0.0), -1.0)])
        with pytest.raises(DegenerateSet):
            project_polygon((0.0, 0.0), empty)

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon2D([((2.0, 0.0), 1.0)])


@pytest.mark.parametrize(
    "region",
    [
        UNIT_BOX,
        Ball2D((1.0, -2.0), 3.0),
        UNIT_SQUARE,
        Ball2D((0.0, 0.0), 0.0),
    ],
    ids=["box", "ball", "polygon", "point-ball"],
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
    # a hair outside a square's corner: a perpendicular foot just past the
    # vertex used to be taken as the projection
    @example(a=(0.0, -5.229529388515273e-12), b=(5.229529388515273e-12, -5.229529388515273e-12))
    def test_nonexpansive(self, region, a, b):
        pa, pb = region.project(a), region.project(b)
        assert dist(pa, pb) <= dist(a, b) + 1e-12

    @given(p=points)
    @settings(max_examples=150, deadline=None)
    def test_membership(self, region, p):
        assert region.violation(region.project(p)) <= 1e-9


class TestDykstra:
    def test_feasible_sequence_unchanged(self):
        pts = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.2)]
        cons = [StepCap(0, (0.0, 0.0), 1.0), StepCap(1, (0.0, 0.0), 1.0)]
        out = dykstra_project(pts, cons)
        assert out == pts
        assert constraint_violation(out, cons) == 0.0

    def test_symmetric_pair_moves_to_midpoint(self):
        # distance 3 apart with cap 1: each endpoint travels exactly 1.0
        pts = [(0.0, 0.0), (3.0, 0.0)]
        out = dykstra_project(pts, [StepCap(0, (0.0, 0.0), 1.0)])
        assert out[0] == pytest.approx((1.0, 0.0), abs=1e-12)
        assert out[1] == pytest.approx((2.0, 0.0), abs=1e-12)

    def test_random_sequence_meets_caps(self):
        rng = np.random.default_rng(11)
        pts = [tuple(p) for p in rng.uniform(-3, 3, size=(5, 2))]
        cons = [StepCap(i, (0.0, 0.0), 0.5) for i in range(4)]
        out = dykstra_project(pts, cons, tol=1e-8)
        # oracle: evaluate every constraint on the output directly
        for i in range(4):
            assert dist(out[i + 1], out[i]) <= 0.5 + 1e-6
        assert constraint_violation(out, cons) <= 1e-6

    def test_pinned_start_and_memberships(self):
        pts = [(5.0, 5.0), (6.0, 6.0), (9.0, 9.0)]
        cons = [
            PointIn(0, Box2D((0.0, 0.0), (0.0, 0.0))),
            StepCap(0, (0.0, 0.0), 1.0),
            StepCap(1, (0.0, 0.0), 1.0),
            PointIn(1, UNIT_BOX),
            PointIn(2, UNIT_BOX),
        ]
        out = dykstra_project(pts, cons, max_iter=2000)
        assert out[0] == pytest.approx((0.0, 0.0), abs=1e-8)
        assert constraint_violation(out, cons) <= 1e-8

    def test_projection_optimality_against_grid(self):
        # the returned point must be the nearest feasible sequence, not just
        # a feasible one; check against dense sampling of a 1-D slice
        pts = [(0.0, 0.0), (2.0, 0.0)]
        cons = [
            PointIn(0, Box2D((0.0, 0.0), (0.0, 0.0))),
            StepCap(0, (0.0, 0.0), 1.0),
        ]
        out = dykstra_project(pts, cons)
        # with x0 pinned, nearest feasible x1 is the cap boundary toward (2,0)
        assert out[1] == pytest.approx((1.0, 0.0), abs=1e-8)

    def test_no_convergence_reports_residual(self):
        pts = [(0.0, 0.0), (10.0, 0.0)]
        cons = [
            PointIn(0, Box2D((0.0, 0.0), (0.0, 0.0))),
            PointIn(1, Box2D((10.0, 0.0), (10.0, 0.0))),
            StepCap(0, (0.0, 0.0), 1.0),  # impossible: endpoints pinned 10 apart
        ]
        with pytest.raises(NoConvergence) as err:
            dykstra_project(pts, cons, max_iter=50)
        assert err.value.residual > 0
        assert len(err.value.points) == 2

    def test_drift_centered_cap(self):
        # cap centered on a drift vector: feasible displacement is drift +- r
        pts = [(0.0, 0.0), (0.0, 0.0)]
        cons = [StepCap(0, (2.0, 0.0), 0.5)]
        out = dykstra_project(pts, cons)
        gap = sub(out[1], out[0])
        assert dist(gap, (2.0, 0.0)) <= 0.5 + 1e-9
