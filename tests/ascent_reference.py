"""The offline ascent that the tests check the certified restart test against.

It is ``metrics._ascend`` as it ran with the totals computed every
iteration: each step's restart test compares the two computed totals, and a
check after a restart computes the waypoints and slot terms afresh.  It
drives the library's own ``_Lockstep``, so only the loop is kept here; its
checks hand settled rows to the same Newton finish as the library's.
:func:`solve_offline_batch` runs the library's solve on this loop.
"""

import math

import numpy as np

from trajsim import metrics
from trajsim.metrics import _Lockstep
from trajsim.objectives import row_scalars


def ascend(problems, x0s, max_iter, tol):
    """Accelerated projected ascent on all rows at once, its totals computed every iteration."""
    st = _Lockstep(problems, x0s)
    z, z_prev, z_new = st.z0, st.z0.copy(), np.empty_like(st.z0)
    f_curr = list(st.u0)
    iterations = next_due = 0
    stale = False
    while True:
        if iterations >= next_due:
            if stale:
                st.values(z)
            met = st.certify(z, f_curr, tol)
            due = st.schedule(z, iterations, max_iter)
            for j in st.settled:
                met[j] = st.finish(j, z, f_curr[j], tol)
            done = [d and (m or iterations >= max_iter) for d, m in zip(due, met)]
            if any(done):
                st.record([j for j, d in enumerate(done) if d], z, iterations, met)
                if all(done):
                    return st.results
                keep = [j for j, d in enumerate(done) if not d]
                z, z_prev, f_curr = st.take(keep, z, z_prev, f_curr)
                z_new = np.empty_like(z)
            next_due = min(st.due)
        iterations += 1
        t_next = [0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t)) for t in st.t_k]
        beta = row_scalars([(t - 1.0) / tn for t, tn in zip(st.t_k, t_next)])
        y = np.subtract(z, z_prev, out=st.y)
        np.add(z, np.multiply(beta, y, out=y), out=y)
        z_new = st.ascent_step(y, out=z_new)
        f_new = st.values(z_new)
        back = [j for j, (fn, fc) in enumerate(zip(f_new, f_curr)) if fn < fc]
        stale = bool(back)
        if back:
            # momentum overshoot: restart these rows from a plain projected step
            z_back = st.ascent_step(z)
            for j, f in zip(back, st.values(z_back, back)):
                st.restarts[j] += 1
                t_next[j] = 1.0
                f_new[j] = f
            z_new[back] = z_back[back]
        z_prev, z, z_new, st.t_k = z, z_new, z_prev, t_next
        f_curr = f_new


def solve_offline_batch(problems, x0s=None, max_iter=100_000, tol=metrics.GAP_TOL):
    """``metrics.solve_offline_batch`` with its ascent run by :func:`ascend`."""
    library = metrics._ascend
    metrics._ascend = ascend
    try:
        return metrics.solve_offline_batch(problems, x0s, max_iter=max_iter, tol=tol)
    finally:
        metrics._ascend = library
