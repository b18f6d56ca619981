"""Convex feasible sets in the plane and Euclidean projections onto them.

All projections are exact closed forms (clamp, radial scaling, edge/vertex
enumeration); the only iterative routine is :func:`dykstra_project`, which
handles sequences coupled by per-pair displacement caps.  Everything here is
a pure function over value types and safe to share between concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateSet, NoConvergence
from .geom import Point, Vector, as_point, dist, dot, norm, sub

_UNIT_TOL = 1e-12


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


@dataclass(frozen=True)
class Ball2D:
    """Disc ``Euclidean-norm(x - center) <= radius``; radius 0 is legal."""

    center: Point
    radius: float

    def __post_init__(self):
        if self.radius < 0.0:
            raise ValueError(f"negative radius {self.radius}")
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))

    def contains(self, p: Point, tol: float = 0.0) -> bool:
        return dist(p, self.center) <= self.radius + tol

    def project(self, p: Point) -> Point:
        return project_ball(p, self)

    def violation(self, p: Point) -> float:
        return max(0.0, dist(p, self.center) - self.radius)


def _satisfies_all(halfspaces, p, tol):
    return all(dot(n, p) <= b + tol for n, b in halfspaces)


class ConvexPolygon2D:
    """Intersection of halfspaces ``n . x <= b`` with unit normals.

    ``from_vertices`` builds the halfspace list from a counter-clockwise
    vertex ring, which is usually the more convenient constructor.
    """

    def __init__(self, halfspaces: Sequence[tuple[Vector, float]]):
        if not halfspaces:
            raise DegenerateSet("polygon needs at least one halfspace")
        cleaned = []
        for n, b in halfspaces:
            n = as_point(n)
            if abs(norm(n) - 1.0) > _UNIT_TOL:
                raise ValueError(f"normal {n} is not unit length")
            cleaned.append((n, float(b)))
        self.halfspaces: tuple[tuple[Vector, float], ...] = tuple(cleaned)

    @classmethod
    def from_vertices(cls, vertices: Sequence[Point]) -> "ConvexPolygon2D":
        if len(vertices) < 3:
            raise DegenerateSet("polygon needs at least 3 vertices")
        vs = [as_point(v) for v in vertices]
        # signed area decides orientation; flip clockwise input
        area2 = sum(
            vs[i][0] * vs[(i + 1) % len(vs)][1] - vs[(i + 1) % len(vs)][0] * vs[i][1]
            for i in range(len(vs))
        )
        if area2 < 0:
            vs = vs[::-1]
        halfspaces = []
        for i in range(len(vs)):
            a, b = vs[i], vs[(i + 1) % len(vs)]
            edge = sub(b, a)
            if norm(edge) == 0.0:
                continue
            # outward normal of a CCW edge
            n = (edge[1], -edge[0])
            nn = norm(n)
            n = (n[0] / nn, n[1] / nn)
            halfspaces.append((n, dot(n, a)))
        return cls(halfspaces)

    def contains(self, p: Point, tol: float = 0.0) -> bool:
        return _satisfies_all(self.halfspaces, p, tol)

    def project(self, p: Point) -> Point:
        return project_polygon(p, self)

    def violation(self, p: Point) -> float:
        return max(0.0, max(dot(n, p) - b for n, b in self.halfspaces))

    def vertices(self, tol: float = 1e-9) -> list[Point]:
        """Feasible pairwise boundary-line intersections."""
        hs = self.halfspaces
        out: list[Point] = []
        for i in range(len(hs)):
            for j in range(i + 1, len(hs)):
                (n1, b1), (n2, b2) = hs[i], hs[j]
                det = n1[0] * n2[1] - n1[1] * n2[0]
                if abs(det) < 1e-14:
                    continue
                vx = (b1 * n2[1] - b2 * n1[1]) / det
                vy = (n1[0] * b2 - n2[0] * b1) / det
                if _satisfies_all(hs, (vx, vy), tol):
                    out.append((vx, vy))
        return out


Region = Union[Box2D, Ball2D, ConvexPolygon2D]


def project_box(p: Point, box: Box2D) -> Point:
    """Componentwise clamp of ``p`` into ``box``."""
    return (
        min(max(p[0], box.lo[0]), box.hi[0]),
        min(max(p[1], box.lo[1]), box.hi[1]),
    )


def project_ball(p: Point, ball: Ball2D) -> Point:
    """Radial clamp of ``p`` into ``ball``; the center maps to itself."""
    d = dist(p, ball.center)
    if d <= ball.radius:
        return as_point(p)
    s = ball.radius / d
    c = ball.center
    return (c[0] + s * (p[0] - c[0]), c[1] + s * (p[1] - c[1]))


def project_polygon(p: Point, poly: ConvexPolygon2D, tol: float = 1e-9) -> Point:
    """Exact nearest point of a convex polygon.

    Checks containment first, then the projections onto every boundary line
    and every pairwise line intersection, keeping feasible candidates only.
    """
    p = as_point(p)
    if poly.contains(p, tol=0.0):
        return p
    hs = poly.halfspaces
    candidates: list[Point] = []
    for i, (n, b) in enumerate(hs):
        # foot of the perpendicular onto the boundary line n.x = b; it must lie
        # exactly inside the other halfspaces, since a foot a hair past a
        # vertex is nearer than the vertex and would leave the polygon
        excess = dot(n, p) - b
        q = (p[0] - excess * n[0], p[1] - excess * n[1])
        if _satisfies_all(hs[:i] + hs[i + 1 :], q, 0.0):
            candidates.append(q)
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            (n1, b1), (n2, b2) = hs[i], hs[j]
            det = n1[0] * n2[1] - n1[1] * n2[0]
            if abs(det) < 1e-14:
                continue
            vx = (b1 * n2[1] - b2 * n1[1]) / det
            vy = (n1[0] * b2 - n2[0] * b1) / det
            if _satisfies_all(hs, (vx, vy), tol):
                candidates.append((vx, vy))
    if not candidates:
        raise DegenerateSet("polygon has no feasible boundary point")
    return min(candidates, key=lambda q: dist(p, q))


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
    region: Region


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
    """Memberships sharing one region, each on a distinct coordinate."""

    def __init__(self, region: Region, indices: list[int]):
        self.region = region
        self.idx = np.array(sorted(set(indices)), dtype=int)
        self._box = region if isinstance(region, Box2D) else None

    def project(self, z: np.ndarray) -> np.ndarray:
        out = z.copy()
        if self._box is not None:
            out[self.idx] = np.clip(out[self.idx], self._box.lo, self._box.hi)
            return out
        for i in self.idx:
            out[i] = self.region.project((out[i, 0], out[i, 1]))
        return out

    def violation(self, z: np.ndarray) -> float:
        if self._box is not None:
            pts = z[self.idx]
            ex = np.maximum(
                np.maximum(self._box.lo - pts, pts - self._box.hi), 0.0
            )
            return float(np.max(np.hypot(ex[:, 0], ex[:, 1]), initial=0.0))
        return max(
            (self.region.violation((z[i, 0], z[i, 1])) for i in self.idx), default=0.0
        )


def _group_constraints(constraints: Sequence[Constraint]):
    """Split the constraint list into product sets over disjoint coordinates.

    Caps on pairs (0,1), (2,3), ... touch disjoint coordinates, as do
    (1,2), (3,4), ...; each parity class is one group and one vectorized
    projection.  Memberships are grouped by their region, with duplicate
    (region, index) entries collapsed.
    """
    even = [c for c in constraints if isinstance(c, StepCap) and c.index % 2 == 0]
    odd = [c for c in constraints if isinstance(c, StepCap) and c.index % 2 == 1]
    groups: list[_CapGroup | _MemberGroup] = []
    if even:
        groups.append(_CapGroup(even))
    if odd:
        groups.append(_CapGroup(odd))
    by_region: dict[tuple, tuple[Region, list[int]]] = {}
    order: list[tuple] = []
    for c in constraints:
        if not isinstance(c, PointIn):
            continue
        if isinstance(c.region, Box2D):
            key = ("box", c.region.lo, c.region.hi)
        elif isinstance(c.region, Ball2D):
            key = ("ball", c.region.center, c.region.radius)
        else:
            key = ("poly", id(c.region))
        if key not in by_region:
            by_region[key] = (c.region, [])
            order.append(key)
        by_region[key][1].append(c.index)
    for key in order:
        region, indices = by_region[key]
        groups.append(_MemberGroup(region, indices))
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
    z = np.asarray([as_point(p) for p in points], dtype=float)
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
