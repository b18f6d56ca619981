"""Tiny 2-D vector helpers on plain float tuples.

The per-slot simulation loop runs one waypoint at a time, so these stay in
pure Python floats; array math is reserved for the batch solvers.
"""

from __future__ import annotations

import math

Point = tuple[float, float]
Vector = tuple[float, float]


def as_point(p) -> Point:
    return (float(p[0]), float(p[1]))


def add(a: Vector, b: Vector) -> Vector:
    return (a[0] + b[0], a[1] + b[1])


def sub(a: Vector, b: Vector) -> Vector:
    return (a[0] - b[0], a[1] - b[1])


def dot(a: Vector, b: Vector) -> float:
    return a[0] * b[0] + a[1] * b[1]


def norm(a: Vector) -> float:
    return math.hypot(a[0], a[1])


def norm_sq(a: Vector) -> float:
    return a[0] * a[0] + a[1] * a[1]


def dist(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def lerp(a: Point, b: Point, w: float) -> Point:
    return (a[0] + w * (b[0] - a[0]), a[1] + w * (b[1] - a[1]))
