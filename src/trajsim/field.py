"""Gridded time-varying 2-D current fields.

Fields are immutable once built: loading, perturbing, and synthesizing all
return new objects, and sampling is a pure read, so one field can back any
number of concurrent episodes.  Each field keeps a lazy cache of the lattice
cells it has been sampled in, as Python floats; two threads filling the same
cell at once store equal values.

File format (UTF-8 CSV): header exactly ``t,x,y,u,v`` with units s, m, m,
m/s, m/s; one row per lattice node of a complete regular lattice.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import LatticeError, ParseError, UnitsError
from .geom import Point, Vector

_HEADER = ["t", "x", "y", "u", "v"]


@dataclass(frozen=True)
class VelocityField:
    """Currents on a regular (t, y, x) lattice with ascending grids."""

    x_grid: tuple[float, ...]
    y_grid: tuple[float, ...]
    t_grid: tuple[float, ...]
    u: np.ndarray
    v: np.ndarray
    v_o_max: float = field(init=False)
    # bracket indices (k0, k1, j0, j1, i0, i1) -> the cell's corner values
    # c[0..7] of u, then of v, in (k, j, i) order, each odd entry c[n] stored
    # as its difference c[n] - c[n-1] along x
    _cells: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("x_grid", "y_grid", "t_grid"):
            g = tuple(float(c) for c in getattr(self, name))
            if len(g) == 0:
                raise ValueError(f"{name} is empty")
            if not all(map(math.isfinite, g)):
                raise ValueError(f"{name} must be finite")
            if any(b <= a for a, b in zip(g, g[1:])):
                raise ValueError(f"{name} must be strictly ascending")
            object.__setattr__(self, name, g)
        shape = (len(self.t_grid), len(self.y_grid), len(self.x_grid))
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != shape or v.shape != shape:
            raise ValueError(f"component arrays must have shape {shape}")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("field components must be finite")
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            speed_max = float(np.sqrt(u * u + v * v).max())
        if not math.isfinite(speed_max):
            raise ValueError(f"field top speed must be finite, got {speed_max}")
        object.__setattr__(self, "v_o_max", speed_max)
        object.__setattr__(self, "_cells", {})

    def bbox(self) -> tuple[Point, Point]:
        return (
            (self.x_grid[0], self.y_grid[0]),
            (self.x_grid[-1], self.y_grid[-1]),
        )


def load_field(path) -> VelocityField:
    """Read a field file; see the module docstring for the format.

    Raises :class:`UnitsError` on a header mismatch, :class:`ParseError` on
    a malformed row, and :class:`LatticeError` when the rows do not cover a
    complete regular lattice (the message names the offending cell).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise UnitsError(f"{path}: empty file, expected header {','.join(_HEADER)}")
        if [h.strip() for h in header] != _HEADER:
            raise UnitsError(
                f"{path}: header {','.join(header)!r} != {','.join(_HEADER)!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ParseError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            try:
                rows.append(tuple(float(c) for c in row))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise LatticeError(f"{path}: no data rows")
    t_grid = tuple(sorted({r[0] for r in rows}))
    x_grid = tuple(sorted({r[1] for r in rows}))
    y_grid = tuple(sorted({r[2] for r in rows}))
    t_idx = {c: i for i, c in enumerate(t_grid)}
    x_idx = {c: i for i, c in enumerate(x_grid)}
    y_idx = {c: i for i, c in enumerate(y_grid)}
    shape = (len(t_grid), len(y_grid), len(x_grid))
    u = np.full(shape, np.nan)
    v = np.full(shape, np.nan)
    for t, x, y, uu, vv in rows:
        k, j, i = t_idx[t], y_idx[y], x_idx[x]
        if not math.isnan(u[k, j, i]):
            raise LatticeError(f"{path}: duplicate cell (t={t}, x={x}, y={y})")
        u[k, j, i] = uu
        v[k, j, i] = vv
    missing = np.argwhere(np.isnan(u))
    if missing.size:
        k, j, i = missing[0]
        raise LatticeError(
            f"{path}: missing cell (t={t_grid[k]}, x={x_grid[i]}, y={y_grid[j]})"
        )
    return VelocityField(x_grid, y_grid, t_grid, u, v)


def _fill_cell(f: VelocityField, key: tuple[int, ...]) -> tuple[float, ...]:
    k0, k1, j0, j1, i0, i1 = key
    corners = np.ix_((k0, k1), (j0, j1), (i0, i1))
    a = np.stack((f.u[corners], f.v[corners])).reshape(2, 8)
    a[:, 1::2] -= a[:, ::2]
    f._cells[key] = cell = tuple(a.ravel().tolist())
    return cell


def sample_velocity(f: VelocityField, p: Point, t: float) -> Vector:
    """Current at position ``p`` (m) and time ``t`` (s).

    Bilinear in space and linear in time, exact at lattice nodes.  Queries
    outside the lattice clamp to the nearest boundary node, since a vehicle
    may legitimately exit the forecast box.
    """
    x, y = p
    g = f.x_grid
    if g[0] < x < g[-1]:
        i1 = bisect_right(g, x)
        i0 = i1 - 1
        wx = (x - g[i0]) / (g[i1] - g[i0])
    else:
        i0 = i1 = 0 if x <= g[0] else len(g) - 1
        wx = 0.0
    g = f.y_grid
    if g[0] < y < g[-1]:
        j1 = bisect_right(g, y)
        j0 = j1 - 1
        wy = (y - g[j0]) / (g[j1] - g[j0])
    else:
        j0 = j1 = 0 if y <= g[0] else len(g) - 1
        wy = 0.0
    g = f.t_grid
    if g[0] < t < g[-1]:
        k1 = bisect_right(g, t)
        k0 = k1 - 1
    else:
        k0 = k1 = 0 if t <= g[0] else len(g) - 1
    key = (k0, k1, j0, j1, i0, i1)
    c = f._cells.get(key) or _fill_cell(f, key)
    a, b = c[0] + wx * c[1], c[2] + wx * c[3]
    u = a + wy * (b - a)
    a, b = c[8] + wx * c[9], c[10] + wx * c[11]
    v = a + wy * (b - a)
    if k1 != k0:
        wt = (t - g[k0]) / (g[k1] - g[k0])
        a, b = c[4] + wx * c[5], c[6] + wx * c[7]
        u = u + wt * (a + wy * (b - a) - u)
        a, b = c[12] + wx * c[13], c[14] + wx * c[15]
        v = v + wt * (a + wy * (b - a) - v)
    # a numpy scalar in p or t would carry through to here
    return (float(u), float(v))


@dataclass(frozen=True)
class FieldPerturbation:
    """White Gaussian forecast noise, scaled to the field's top speed."""

    sigma_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma_fraction <= 1.0:
            raise ValueError(f"sigma_fraction {self.sigma_fraction} outside [0, 1]")


def perturb_field(f: VelocityField, pert: FieldPerturbation) -> VelocityField:
    """Add i.i.d. zero-mean noise with std ``sigma_fraction * v_o_max``.

    Deterministic in the perturbation seed; the input field is untouched.
    """
    if pert.sigma_fraction == 0.0:
        return f
    sigma = pert.sigma_fraction * f.v_o_max
    rng = np.random.default_rng(pert.seed)
    u = f.u + rng.normal(0.0, sigma, f.u.shape)
    v = f.v + rng.normal(0.0, sigma, f.v.shape)
    return VelocityField(f.x_grid, f.y_grid, f.t_grid, u, v)


@dataclass(frozen=True)
class UniformSpec:
    u: float
    v: float


@dataclass(frozen=True)
class GyreSpec:
    """Counter-clockwise rotation, solid-body inside ``radius``, smooth decay out."""

    center: Point
    strength: float
    radius: float


@dataclass(frozen=True)
class AwayFromGoalSpec:
    """Currents pointing radially away from a goal at constant speed."""

    goal: Point
    speed: float


SynthSpec = UniformSpec | GyreSpec | AwayFromGoalSpec


# a pattern that overflows gives non-finite components, which VelocityField rejects
@np.errstate(over="ignore", invalid="ignore")
def synth_field(
    spec: SynthSpec,
    x_grid: Sequence[float],
    y_grid: Sequence[float],
    t_grid: Sequence[float] = (0.0,),
) -> VelocityField:
    """Sample an analytic current pattern onto a lattice."""
    xs = np.asarray(x_grid, dtype=float)
    ys = np.asarray(y_grid, dtype=float)
    nt = len(tuple(t_grid))
    gx, gy = np.meshgrid(xs, ys)  # shape (ny, nx)
    if isinstance(spec, UniformSpec):
        u2 = np.full_like(gx, spec.u)
        v2 = np.full_like(gx, spec.v)
    elif isinstance(spec, AwayFromGoalSpec):
        dx = gx - spec.goal[0]
        dy = gy - spec.goal[1]
        r = np.hypot(dx, dy)
        safe = np.where(r == 0.0, 1.0, r)
        u2 = np.where(r == 0.0, 0.0, spec.speed * dx / safe)
        v2 = np.where(r == 0.0, 0.0, spec.speed * dy / safe)
    elif isinstance(spec, GyreSpec):
        dx = gx - spec.center[0]
        dy = gy - spec.center[1]
        r = np.hypot(dx, dy)
        rel = r / spec.radius
        # tangential speed peaks at the disc edge, then decays smoothly
        speed = spec.strength * rel * np.exp(0.5 * (1.0 - rel * rel))
        safe = np.where(r == 0.0, 1.0, r)
        u2 = np.where(r == 0.0, 0.0, -speed * dy / safe)
        v2 = np.where(r == 0.0, 0.0, speed * dx / safe)
    else:
        raise TypeError(f"unknown synthetic field spec {spec!r}")
    u = np.broadcast_to(u2, (nt, *u2.shape)).copy()
    v = np.broadcast_to(v2, (nt, *v2.shape)).copy()
    return VelocityField(tuple(xs), tuple(ys), tuple(t_grid), u, v)
