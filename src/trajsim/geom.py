"""Tiny 2-D vector helpers on plain float tuples, left-to-right sums, the
elementwise functions that keep ``math``'s and ``**``'s bits on arrays, and
the bridges between coordinate arrays and float-tuple points.

The per-slot simulation loop runs one waypoint at a time, so the vector
helpers stay in pure Python floats.  An episode's per-slot schedules are
computed as arrays before the loop and handed to it as points.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

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


def left_sum_array(a: np.ndarray) -> float:
    """``left_sum(a.tolist(), 0.0)`` of a 1-D float array, bit for bit.

    ``np.add.accumulate`` adds strictly left to right, where ``np.sum``
    adds pairwise.  Like any numpy arithmetic it warns on overflow unless
    the caller runs it under ``np.errstate``.
    """
    return float(np.add.accumulate(np.concatenate(([0.0], a)))[-1])


def mapped(fn, *columns: np.ndarray) -> np.ndarray:
    """``fn`` over the columns' elements as Python floats, as an array.

    numpy's ``log``, ``hypot``, ``power`` and the like may differ from
    ``math``'s and from ``**`` in the last bit, so a formula that must keep
    its bits maps these.
    """
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), float, len(columns[0]))


def powers(x: np.ndarray, k) -> np.ndarray:
    """``x ** k`` per element of a 1-D array, as ``builtins.pow`` of Python floats.

    ``pow`` is what ``**`` calls, so the bits and the ``OverflowError`` are
    ``**``'s; numpy's ``power`` and ``square`` may differ in the last bit.
    ``k`` is converted to a float once, where ``**`` converts it per call.
    """
    return np.fromiter(map(pow, x.tolist(), repeat(float(k))), float, len(x))


def points(xs: np.ndarray, ys: np.ndarray) -> list[Point]:
    """Two coordinate arrays as a list of float-tuple points."""
    return list(zip(xs.tolist(), ys.tolist()))


def as_array(pts: Sequence[Point] | np.ndarray) -> np.ndarray:
    """A point list as a ``(len, 2)`` float array, in half the time of ``np.array``.

    An array is passed through ``np.asarray`` as floats, so a float array is
    returned as it is.  Rows that are not pairs raise ``ValueError``: an
    array of another shape, or a list with more or fewer than ``2 * len``
    coordinates in all (rows of mixed widths that sum to exactly that are
    not told apart, which would cost a pass over the rows).
    """
    if isinstance(pts, np.ndarray):
        a = np.asarray(pts, dtype=float)
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError(f"expected points as an (n, 2) array, got shape {a.shape}")
        return a
    cells = chain.from_iterable(pts)
    a = np.fromiter(cells, float, 2 * len(pts)).reshape(-1, 2)  # too few cells raise here
    if next(cells, None) is not None:
        raise ValueError(f"expected {len(pts)} points as (x, y) pairs, got more coordinates")
    return a


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
