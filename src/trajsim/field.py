"""Gridded time-varying 2-D current fields.

Fields are immutable once built: loading, perturbing, and synthesizing all
return new objects, and sampling is a pure read, so one field can back any
number of concurrent episodes.  Each field keeps two lazy caches.  One holds
the lattice cells it has been sampled in, as Python floats; two threads
filling the same cell at once store equal values.  The other is a memo of
the last interior cell sampled: its bounds on each axis, its cell values
and the grid terms of its weights, as one tuple.  A sample that falls in
that cell reuses them and skips the bracket search.  The memo is read once
into a local and replaced whole, so a concurrent sample can only cost
another thread a miss, never a wrong value.

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

from .errors import COUNT, FRACTION, LatticeError, ParseError, UnitsError, check
from .geom import Point, Vector

_HEADER = ["t", "x", "y", "u", "v"]
# the memo before any interior sample: NaN bounds fail every comparison
_NO_BRACKET = (math.nan,) * 6 + ((), 0.0, 1.0, 0.0, 1.0, None, None)
# the full search's answer for a NaN coordinate: NaN weights on any cell
_NAN_BRACKET = ((0.0,) * 16, math.nan, math.nan, None, None)


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
    # the last interior bracket: (x lo, x hi, y lo, y hi, t lo, t hi, cell,
    # g[i0] and g[i1] - g[i0] along x, along y, then along t or None twice)
    _last: tuple = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_last", _NO_BRACKET)

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
    cell = []
    for comp in (f.u.item, f.v.item):
        for k in (k0, k1):
            for j in (j0, j1):
                c = comp(k, j, i0)
                cell += (c, comp(k, j, i1) - c)
    f._cells[key] = cell = tuple(cell)
    return cell


def _axis(g: tuple[float, ...], c: float) -> tuple:
    """``c``'s bracket ``(i0, i1, w)`` on grid ``g``, clamped outside, then
    the memo's ``(lo, hi, g[i0], g[i1] - g[i0])`` for it, or ``None`` if clamped."""
    if g[0] < c < g[-1]:
        i1 = bisect_right(g, c)
        i0 = i1 - 1
        g0, d = g[i0], g[i1] - g[i0]
        # c == g[0] is clamped, so the first cell starts just above g[0]
        lo = g0 if i0 else math.nextafter(g0, math.inf)
        return i0, i1, (c - g0) / d, (lo, g[i1], g0, d)
    i0 = 0 if c <= g[0] else len(g) - 1
    return i0, i0, 0.0, None


def _bracket(f: VelocityField, x: float, y: float, t: float) -> tuple:
    """The full search: bracket each axis and look up the cell.  Sets the
    memo when both space axes are interior, and time is interior or has one
    node (then every time is in the cell).  A NaN x or y, or a NaN t where
    time has more than one node, has no cell: its weights are NaN."""
    if x != x or y != y or (t != t and len(f.t_grid) > 1):
        return _NAN_BRACKET
    i0, i1, wx, mx = _axis(f.x_grid, x)
    j0, j1, wy, my = _axis(f.y_grid, y)
    k0, k1, _, mt = _axis(f.t_grid, t)
    if mt is None and len(f.t_grid) == 1:
        mt = (-math.inf, math.inf, None, None)  # no time weight
    key = (k0, k1, j0, j1, i0, i1)
    c = f._cells.get(key) or _fill_cell(f, key)
    if mx is not None and my is not None and mt is not None:
        memo = (*mx[:2], *my[:2], *mt[:2], c, *mx[2:], *my[2:], *mt[2:])
        object.__setattr__(f, "_last", memo)
    gt, dt = mt[2:] if mt is not None else (None, None)
    return c, wx, wy, gt, dt


def sample_velocity(f: VelocityField, p: Point, t: float) -> Vector:
    """Current at position ``p`` (m) and time ``t`` (s).

    Bilinear in space and linear in time, exact at lattice nodes.  Queries
    outside the lattice clamp to the nearest boundary node, since a vehicle
    may legitimately exit the forecast box.

    A sample inside the field's last interior cell reads the cell and its
    weight terms from the memo (see the module docstring) and runs the same
    arithmetic in the same order, so it returns the full search's bits.  The
    memo is one tuple read once into a local: a thread that replaces it
    meanwhile can cost a miss, never a wrong value.  NaN fails every bound,
    so it always takes the full search, which returns ``(nan, nan)`` for a
    NaN ``x`` or ``y``, and for a NaN ``t`` unless time has a single node.
    """
    x, y = p
    xlo, xhi, ylo, yhi, tlo, thi, c, gx, dx, gy, dy, gt, dt = f._last
    if xlo <= x < xhi and ylo <= y < yhi and tlo <= t < thi:
        wx = (x - gx) / dx
        wy = (y - gy) / dy
    else:
        c, wx, wy, gt, dt = _bracket(f, x, y, t)
    a, b = c[0] + wx * c[1], c[2] + wx * c[3]
    u = a + wy * (b - a)
    a, b = c[8] + wx * c[9], c[10] + wx * c[11]
    v = a + wy * (b - a)
    if dt is not None:
        wt = (t - gt) / dt
        a, b = c[4] + wx * c[5], c[6] + wx * c[7]
        u = u + wt * (a + wy * (b - a) - u)
        a, b = c[12] + wx * c[13], c[14] + wx * c[15]
        v = v + wt * (a + wy * (b - a) - v)
    # a numpy scalar in p or t would carry through to here
    return (float(u), float(v))


@dataclass(frozen=True)
class FieldPerturbation:
    """White Gaussian forecast noise, scaled to the field's top speed.

    ``seed`` seeds numpy's generator, which takes no negative seed; 0 lets a
    scenario derive one from its master seed.
    """

    sigma_fraction: float
    seed: int = 0

    def __post_init__(self):
        check(FRACTION, self.sigma_fraction, "perturbation.sigma_fraction")
        check(COUNT, self.seed, "perturbation.seed")


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
