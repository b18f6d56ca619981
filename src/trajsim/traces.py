"""CSV emission of episode traces and sweep summaries.

Floats are written with ``repr`` so files are byte-stable across runs and
parse back to the exact same values; taking a field that does not apply to
a scenario kind leaves its cell empty.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from .geom import norm
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


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def emit_trace(report: EpisodeReport, path) -> None:
    """Write one row per slot; step-level fields are empty on the last slot."""
    rows = []
    T = report.horizon
    for t in range(1, T + 1):
        x = report.trajectory[t - 1]
        goal = report.goals[t - 1]
        if t < T:
            rec = report.records[t - 1]
            step_fields = [
                report.lambdas[t - 1],
                report.alphas[t - 1],
                rec.gamma,
                norm(rec.grad_tilde),
                rec.eps_sq_realized,
            ]
            energy = report.energy_steps[t - 1]
            slack = rec.constraint_slack
        else:
            step_fields = [None, None, None, None, None]
            energy = None
            slack = None
        rows.append(
            [t, x[0], x[1], goal[0], goal[1]]
            + step_fields
            + [report.utilities[t - 1], energy, slack]
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in rows:
            writer.writerow([_cell(v) if not isinstance(v, str) else v for v in row])


def read_trace(path) -> list[dict[str, float | None]]:
    """Parse a trace back into per-slot dicts (inverse of :func:`emit_trace`)."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != TRACE_HEADER:
            raise ValueError(f"{path}: unexpected trace header {reader.fieldnames}")
        for row in reader:
            out.append(
                {k: (None if v == "" else float(v)) for k, v in row.items()}
            )
    return out


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
    """One CSV row per sweep value; failed rows keep param/value with blanks."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for row in rows:
            cells = summary_row(row.param, row.value, row.report)
            writer.writerow(
                [c if isinstance(c, str) else _cell(c) for c in cells]
            )


def emit_single_summary(report: EpisodeReport, path, param: str = "", value="") -> None:
    """Summary file for a single (non-sweep) run."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        cells = summary_row(param, value, report)
        writer.writerow([c if isinstance(c, str) else _cell(c) for c in cells])


def read_summary(path) -> list[dict[str, float | str | None]]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SUMMARY_HEADER:
            raise ValueError(f"{path}: unexpected summary header {reader.fieldnames}")
        for row in reader:
            parsed: dict[str, float | str | None] = {}
            for k, v in row.items():
                if k == "param":
                    parsed[k] = v
                elif v == "":
                    parsed[k] = None
                else:
                    parsed[k] = float(v)
            out.append(parsed)
    return out


def write_regret_report(rr: RegretReport, path: Path) -> None:
    import json

    doc = {
        "regret": rr.regret,
        "S_T": rr.s_t,
        "G_T": rr.g_t,
        "G_T_exact": rr.g_t_exact,
        "E_T_bound": rr.e_t_bound,
        "E_T_realized": rr.e_t_realized,
        "energy_online_j": rr.energy_online,
        "energy_straight_j": rr.energy_straight,
        "energy_conserved_j": rr.energy_conserved,
        "final_goal_distance_m": rr.final_goal_distance,
        "offline_utility_total": sum(rr.offline_utilities),
        "online_utility_total": sum(rr.online_utilities),
        "solver_converged": rr.solver_converged,
        "solver_warning": rr.solver_warning,
        "solver_iterations": rr.solver_iterations,
        "solver_restarts": rr.solver_restarts,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
