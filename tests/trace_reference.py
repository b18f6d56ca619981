"""The csv-module form of ``traces.emit_trace`` that the tests check the library against.

It builds one tuple per slot and hands them all to ``csv.writer``, which
writes ``None`` as an empty cell and every number as ``str(v)``.
"""

import csv

from trajsim.geom import norm
from trajsim.traces import TRACE_HEADER


def emit_trace_csv(report, path) -> None:
    """Write one row per slot; step-level fields are empty on the last slot."""
    T = report.horizon
    traj, goals, utils = report.trajectory, report.goals, report.utilities
    rows = [
        (t, x[0], x[1], goal[0], goal[1], lam, alpha, rec.gamma, norm(rec.grad_tilde),
         rec.eps_sq_realized, u, energy, rec.constraint_slack)
        for t, x, goal, u, rec, lam, alpha, energy in zip(
            range(1, T), traj, goals, utils, report.records,
            report.lambdas, report.alphas, report.energy_steps,
        )
    ]
    x, goal = traj[-1], goals[-1]
    rows.append((T, x[0], x[1], goal[0], goal[1], None, None, None, None, None, utils[-1], None, None))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows(rows)
