"""CSV emission of episode traces and sweep summaries, their one reader, and
the one writer of the JSON files the commands write.

A trace writes each float cell as ``%.17g``: seventeen significant digits
round-trip every double, so :func:`read_trace` returns the exact values,
and Python formats them with its own dtoa code, so the bytes do not depend
on the platform.  Unlike ``repr``, it searches for no shortest digits, so
``0.1`` writes as ``0.10000000000000001``, ``1.0`` as ``1`` and ``-0.0`` as
``-0``.  The summary and the JSON files keep ``repr``.  Taking a field that
does not apply to a scenario kind leaves its cell empty.

The trace holds only numbers, so :func:`emit_trace` zips the report's
series with its step columns (:class:`~trajsim.engine.StepColumns`; the
``grad_norm`` cell is the stored norm of the noisy gradient), formats each
row as one preformatted line instead of going through the csv module, and
writes the lines in chunks of :data:`_CHUNK_ROWS` so that a long trace is
never one string in memory.  A row whose goal, or whose gamma, is the
previous row's object reuses that row's text for those cells: a static goal
repeats one point, and the commute's gamma is one float while its gradient
bound holds.  The test is identity, since ``0.0 == -0.0`` but the two write
``0`` and ``-0``.  Lines end in CRLF, the ``t`` cell is ``%d``, and the
last row's step cells are empty, as the csv module writes ``None``.

:func:`emit_summary` stays on the csv module, because its ``param`` cell is
a string that may need quoting.
"""

from __future__ import annotations

import csv
import json
from itertools import islice
from pathlib import Path
from typing import Sequence

from .geom import left_sum
from .metrics import RegretReport
from .scenarios import EpisodeReport, SweepRow

TRACE_HEADER = [
    "t",
    "x1",
    "x2",
    "goal1",
    "goal2",
    "lambda",
    "alpha",
    "gamma",
    "grad_norm",
    "eps_sq",
    "utility",
    "energy_step",
    "slack",
]

SUMMARY_HEADER = [
    "param",
    "value",
    "regret",
    "S_T",
    "G_T",
    "E_T_bound",
    "E_T_realized",
    "avg_rate",
    "energy",
    "energy_conserved",
    "final_goal_distance",
]


_CHUNK_ROWS = 512
# One slot; the goal1 and goal2 cells come in preformatted as one string,
# and so does the gamma cell.
_TRACE_ROW = "%d,%.17g,%.17g,%s,%.17g,%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g\r\n"


def _trace_lines(report: EpisodeReport):
    """The trace's data rows as CRLF-terminated lines."""
    T = report.horizon
    traj, goals, utils, recs = report.trajectory, report.goals, report.utilities, report.records
    goal_cells = last_goal = gamma_cell = last_gamma = None
    for t, x, goal, lam, alpha, gamma, g, err, u, energy, slack in zip(
        range(1, T), traj, goals, report.lambdas, report.alphas, recs.gamma,
        recs.grad_norm, recs.eps_sq_realized, utils, report.energy_steps, recs.slack,
    ):
        # Identity tests, not ==: -0.0 == 0.0 but the two write -0 and 0.
        if goal is not last_goal:
            last_goal, goal_cells = goal, "%.17g,%.17g" % (goal[0], goal[1])
        if gamma is not last_gamma:
            last_gamma, gamma_cell = gamma, "%.17g" % gamma
        yield _TRACE_ROW % (
            t, x[0], x[1], goal_cells, lam, alpha, gamma_cell, g, err, u, energy, slack
        )
    x, goal = traj[-1], goals[-1]
    yield "%d,%.17g,%.17g,%.17g,%.17g,,,,,,%.17g,,\r\n" % (
        T, x[0], x[1], goal[0], goal[1], utils[-1]
    )


def emit_trace(report: EpisodeReport, path) -> None:
    """Write one row per slot; step-level fields are empty on the last slot."""
    lines = _trace_lines(report)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        while chunk := "".join(islice(lines, _CHUNK_ROWS)):
            fh.write(chunk)


def read_trace(path) -> list[dict[str, float | None]]:
    """Parse a trace back into per-slot dicts (inverse of :func:`emit_trace`)."""
    return _read_csv(path, "trace", TRACE_HEADER)


def summary_row(param: str, value, report: EpisodeReport | None) -> list:
    if report is None:
        return [param, value] + [None] * (len(SUMMARY_HEADER) - 2)
    rr: RegretReport | None = report.regret_report
    return [
        param,
        value,
        rr.regret if rr else None,
        rr.s_t if rr else None,
        rr.g_t if rr else None,
        rr.e_t_bound if rr else None,
        rr.e_t_realized if rr else None,
        report.avg_rate,
        report.energy_total,
        rr.energy_conserved if rr else None,
        report.final_goal_distance,
    ]


def emit_summary(rows: Sequence[SweepRow], path) -> None:
    """One CSV row per sweep value; failed rows keep param/value with blanks.

    A single run's summary is the one row ``SweepRow("", "", report)``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(summary_row(row.param, row.value, row.report) for row in rows)


def read_summary(path) -> list[dict[str, float | str | None]]:
    """Parse a summary back into per-row dicts; the ``param`` cell stays a string."""
    return _read_csv(path, "summary", SUMMARY_HEADER, text=("param",))


def _read_csv(path, kind: str, header: list[str], text=()) -> list[dict]:
    """The rows of a CSV file whose header is ``header``; an empty cell is ``None``.

    Every cell is a float but those of the ``text`` columns, which are kept as read.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise ValueError(f"{path}: unexpected {kind} header {reader.fieldnames}")
        return [
            {k: v if k in text else None if v == "" else float(v) for k, v in row.items()}
            for row in reader
        ]


def write_json(doc: dict, path) -> None:
    """Write ``doc`` as indented JSON with a final newline: every JSON file a command writes."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def write_regret_report(rr: RegretReport, path: Path) -> None:
    doc = {
        "regret": rr.regret,
        "offline_gap": rr.offline_gap,
        "regret_upper": rr.regret_upper,
        "S_T": rr.s_t,
        "G_T": rr.g_t,
        "G_T_exact": rr.g_t_exact,
        "E_T_bound": rr.e_t_bound,
        "E_T_realized": rr.e_t_realized,
        "energy_online_j": rr.energy_online,
        "energy_straight_j": rr.energy_straight,
        "energy_conserved_j": rr.energy_conserved,
        "final_goal_distance_m": rr.final_goal_distance,
        "offline_utility_total": left_sum(rr.offline_utilities),
        "online_utility_total": left_sum(rr.online_utilities),
        "solver_converged": rr.solver_converged,
        "solver_warning": rr.solver_warning,
        "solver_iterations": rr.solver_iterations,
        "solver_restarts": rr.solver_restarts,
        "solver_newton_solves": rr.solver_newton_solves,
    }
    write_json(doc, path)
