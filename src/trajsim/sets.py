"""The feasible box, its projection, and the per-pair displacement cap.

The feasible region of every waypoint is an axis-aligned box, projected by
a componentwise clamp.  A :class:`StepCap` is one slot's cap as a value;
the offline benchmark stores all caps of a horizon as arrays and projects
onto them itself (:mod:`trajsim.metrics`).  Everything here is a pure
function over value types and safe to share between concurrent runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import Point, Vector, as_point


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned box ``lo <= x <= hi``; single points are legal."""

    lo: Point
    hi: Point

    def __post_init__(self):
        lo, hi = as_point(self.lo), as_point(self.hi)
        if lo[0] > hi[0] or lo[1] > hi[1]:
            raise ValueError(f"box lo {lo} exceeds hi {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, p: Point, tol: float = 0.0) -> bool:
        return (
            self.lo[0] - tol <= p[0] <= self.hi[0] + tol
            and self.lo[1] - tol <= p[1] <= self.hi[1] + tol
        )

    def project(self, p: Point) -> Point:
        """Componentwise clamp of ``p`` into the box."""
        return (
            min(max(p[0], self.lo[0]), self.hi[0]),
            min(max(p[1], self.lo[1]), self.hi[1]),
        )

    def vertices(self) -> list[Point]:
        (x0, y0), (x1, y1) = self.lo, self.hi
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


@dataclass(frozen=True)
class StepCap:
    """Coupled constraint ``norm(x[index+1] - x[index] - center) <= radius``."""

    index: int
    center: Vector
    radius: float

    def __post_init__(self):
        if self.radius < 0.0:
            raise ValueError(f"negative cap radius {self.radius}")
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
