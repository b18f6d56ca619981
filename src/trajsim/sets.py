"""The feasible box, per-pair displacement caps, and projections onto them.

The feasible region of every waypoint is an axis-aligned box, projected by
a componentwise clamp; the only iterative routine is :func:`dykstra_project`,
which handles sequences coupled by per-pair displacement caps.  Everything
here is a pure function over value types and safe to share between
concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import NoConvergence
from .geom import Point, Vector, as_point, dist, sub


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
        return project_box(p, self)

    def vertices(self) -> list[Point]:
        (x0, y0), (x1, y1) = self.lo, self.hi
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]

    def violation(self, p: Point) -> float:
        dx = max(self.lo[0] - p[0], p[0] - self.hi[0], 0.0)
        dy = max(self.lo[1] - p[1], p[1] - self.hi[1], 0.0)
        return math.hypot(dx, dy)


def project_box(p: Point, box: Box2D) -> Point:
    """Componentwise clamp of ``p`` into ``box``."""
    return (
        min(max(p[0], box.lo[0]), box.hi[0]),
        min(max(p[1], box.lo[1]), box.hi[1]),
    )


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


@dataclass(frozen=True)
class PointIn:
    """Membership constraint ``x[index] in region``."""

    index: int
    region: Box2D


Constraint = Union[StepCap, PointIn]


def constraint_violation(points: Sequence[Point], constraints: Sequence[Constraint]) -> float:
    """Largest violation of any constraint; 0 means feasible."""
    worst = 0.0
    for c in constraints:
        if isinstance(c, StepCap):
            a, b = points[c.index], points[c.index + 1]
            gap = dist(sub(b, a), c.center) - c.radius
            worst = max(worst, gap)
        else:
            worst = max(worst, c.region.violation(points[c.index]))
    return worst


class _CapGroup:
    """Caps of one parity class: disjoint pairs, projected in one array op.

    Projecting a single pair preserves its midpoint; each endpoint absorbs
    half of the displacement correction.
    """

    def __init__(self, caps: list[StepCap]):
        self.idx = np.array([c.index for c in caps], dtype=int)
        self.centers = np.array([c.center for c in caps], dtype=float)
        self.radii = np.array([c.radius for c in caps], dtype=float)

    def project(self, z: np.ndarray) -> np.ndarray:
        a = z[self.idx]
        b = z[self.idx + 1]
        w = b - a - self.centers
        d = np.hypot(w[:, 0], w[:, 1])
        mask = d > self.radii
        if not mask.any():
            return z
        out = z.copy()
        scale = np.ones_like(d)
        scale[mask] = self.radii[mask] / d[mask]
        u = np.where(mask[:, None], self.centers + w * scale[:, None], b - a)
        mid = a + b
        out[self.idx] = (mid - u) / 2.0
        out[self.idx + 1] = (mid + u) / 2.0
        return out

    def violation(self, z: np.ndarray) -> float:
        w = z[self.idx + 1] - z[self.idx] - self.centers
        return float(np.max(np.hypot(w[:, 0], w[:, 1]) - self.radii, initial=0.0))


class _MemberGroup:
    """Memberships sharing one box, each on a distinct coordinate."""

    def __init__(self, box: Box2D, indices: list[int]):
        self.box = box
        self.idx = np.array(sorted(set(indices)), dtype=int)

    def project(self, z: np.ndarray) -> np.ndarray:
        out = z.copy()
        out[self.idx] = np.clip(out[self.idx], self.box.lo, self.box.hi)
        return out

    def violation(self, z: np.ndarray) -> float:
        pts = z[self.idx]
        ex = np.maximum(np.maximum(self.box.lo - pts, pts - self.box.hi), 0.0)
        return float(np.max(np.hypot(ex[:, 0], ex[:, 1]), initial=0.0))


def _group_constraints(constraints: Sequence[Constraint]):
    """Split the constraint list into product sets over disjoint coordinates.

    Caps on pairs (0,1), (2,3), ... touch disjoint coordinates, as do
    (1,2), (3,4), ...; each parity class is one group and one vectorized
    projection.  Memberships are grouped by their box, with duplicate
    (box, index) entries collapsed.
    """
    even = [c for c in constraints if isinstance(c, StepCap) and c.index % 2 == 0]
    odd = [c for c in constraints if isinstance(c, StepCap) and c.index % 2 == 1]
    groups: list[_CapGroup | _MemberGroup] = []
    if even:
        groups.append(_CapGroup(even))
    if odd:
        groups.append(_CapGroup(odd))
    by_box: dict[Box2D, list[int]] = {}
    for c in constraints:
        if isinstance(c, PointIn):
            by_box.setdefault(c.region, []).append(c.index)
    groups.extend(_MemberGroup(box, indices) for box, indices in by_box.items())
    return groups


def dykstra_project(
    points: Sequence[Point],
    constraints: Sequence[Constraint],
    max_iter: int = 500,
    tol: float = 1e-8,
) -> list[Point]:
    """Project a waypoint sequence onto the intersection of all constraints.

    Alternating projections with Dykstra's correction terms, which converge
    to the exact Euclidean projection onto the intersection (plain cyclic
    projection would only find *a* feasible point).

    Parameters
    ----------
    points : starting waypoint sequence.
    constraints : mix of :class:`StepCap` and :class:`PointIn`.
    max_iter : cycles through the full constraint list.
    tol : maximum allowed constraint violation of the returned sequence.

    Raises
    ------
    NoConvergence
        if the violation is still above ``tol`` after ``max_iter`` cycles;
        the exception carries the best sequence and its residual.
    """
    z = np.array(points, dtype=float)
    if not constraints:
        return [(float(r[0]), float(r[1])) for r in z]
    groups = _group_constraints(constraints)
    increments = [np.zeros_like(z) for _ in groups]
    if max(g.violation(z) for g in groups) <= tol:
        return [(float(r[0]), float(r[1])) for r in z]
    residual = math.inf
    for _ in range(max_iter):
        for g, inc in zip(groups, increments):
            shifted = z + inc
            z_new = g.project(shifted)
            inc[...] = shifted - z_new
            z = z_new
        residual = max(g.violation(z) for g in groups)
        if residual <= tol:
            return [(float(r[0]), float(r[1])) for r in z]
    raise NoConvergence(
        f"violation {residual:.3e} above tol {tol:.3e} after {max_iter} cycles",
        residual=residual,
        points=[(float(r[0]), float(r[1])) for r in z],
    )
