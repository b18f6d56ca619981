"""The csv-module forms of ``traces.emit_trace`` that the tests check the library against.

Both build one tuple per slot and hand them all to ``csv.writer``, which
writes ``None`` as an empty cell.  :func:`emit_trace_csv` is the old format,
every number written as ``str(v)``, which is ``repr`` for a float;
:func:`emit_trace_g17` is today's, every number but ``t`` written ``%.17g``.
"""

import csv
import math
import struct

from trajsim.geom import norm
from trajsim.traces import TRACE_HEADER


def trace_rows(report) -> list[tuple]:
    """The trace's rows as tuples of numbers; the last row's step cells are ``None``."""
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
    return rows


def _write(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows(rows)


def emit_trace_csv(report, path) -> None:
    """The trace as the csv module writes its numbers: ``str(v)``."""
    _write(trace_rows(report), path)


def emit_trace_g17(report, path) -> None:
    """The trace with ``t`` as the csv module writes it and every other number ``%.17g``."""
    _write(
        [
            (t, *(None if v is None else "%.17g" % v for v in cells))
            for t, *cells in trace_rows(report)
        ],
        path,
    )


def cell_bits(value):
    """A trace cell's float as its IEEE bytes, NaN of any sign or payload as ``"nan"``."""
    if value is None:
        return None
    return "nan" if math.isnan(value) else struct.pack("<d", value)
