"""Loop form of ``field.sample_velocity`` that the tests check the library against.

It brackets each coordinate with ``bisect_right``, reads the cell's eight
corners of u and of v from the lattice, and interpolates both components in
one loop, in the arithmetic order the library keeps.
"""

from bisect import bisect_right

import numpy as np


def bracket(grid, c):
    """Indices around ``c`` and the interpolation weight; clamps outside."""
    if c <= grid[0]:
        return 0, 0, 0.0
    if c >= grid[-1]:
        n = len(grid) - 1
        return n, n, 0.0
    hi = bisect_right(grid, c)
    lo = hi - 1
    w = (c - grid[lo]) / (grid[hi] - grid[lo])
    return lo, hi, w


def sample_velocity_loop(f, p, t):
    """Bilinear in space and linear in time; no cell cache."""
    i0, i1, wx = bracket(f.x_grid, p[0])
    j0, j1, wy = bracket(f.y_grid, p[1])
    k0, k1, wt = bracket(f.t_grid, t)
    corners = np.ix_((k0, k1), (j0, j1), (i0, i1))
    cell = (f.u[corners].ravel().tolist(), f.v[corners].ravel().tolist())
    out = []
    for c in cell:
        c00 = c[0] + wx * (c[1] - c[0])
        c01 = c[2] + wx * (c[3] - c[2])
        c0 = c00 + wy * (c01 - c00)
        if k1 != k0:
            c10 = c[4] + wx * (c[5] - c[4])
            c11 = c[6] + wx * (c[7] - c[6])
            c1 = c10 + wy * (c11 - c10)
            c0 = c0 + wt * (c1 - c0)
        out.append(float(c0))
    return (out[0], out[1])
