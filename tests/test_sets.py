from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsim.geom import dist
from trajsim.metrics import _clamp_balls
from trajsim.sets import Box2D, StepCap

UNIT_BOX = Box2D((0.0, 0.0), (1.0, 1.0))

coords = st.floats(-50.0, 50.0, allow_nan=False)
points = st.tuples(coords, coords)


class TestBoxProjection:
    def test_interior_point_fixed(self):
        assert UNIT_BOX.project((0.5, 0.5)) == (0.5, 0.5)

    def test_componentwise_clamp(self):
        assert UNIT_BOX.project((2.0, -1.0)) == (1.0, 0.0)

    def test_boundary_point_fixed(self):
        assert UNIT_BOX.project((1.0, 1.0)) == (1.0, 1.0)

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            Box2D((1.0, 0.0), (0.0, 1.0))

    def test_single_point_box_is_legal(self):
        pin = Box2D((3.0, 4.0), (3.0, 4.0))
        assert pin.project((10.0, -10.0)) == (3.0, 4.0)


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

    def contains(self, p, tol=0.0):
        return dist(p, self.cap.center) <= self.cap.radius + tol


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
        assert region.contains(region.project(p), tol=1e-9)

