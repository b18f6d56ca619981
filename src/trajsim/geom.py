"""Tiny 2-D vector helpers on plain float tuples, and a left-to-right sum.

The per-slot simulation loop runs one waypoint at a time, so these stay in
pure Python floats; array math is reserved for the batch solvers.
"""

from __future__ import annotations

import math
from typing import Iterable

Point = tuple[float, float]
Vector = tuple[float, float]


def left_sum(values: Iterable[float], start=0):
    """``sum(values, start)`` added strictly left to right.

    From Python 3.12 on, the builtin ``sum`` of floats is compensated and can
    differ in the last bit; every sum that reaches an output goes through here.
    """
    total = start
    for v in values:
        total += v
    return total


def as_point(p) -> Point:
    return (float(p[0]), float(p[1]))


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
