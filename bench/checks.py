"""Output checks run on every op; any problem counts the op as failed.

Each function returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import json

from trajsim import read_summary, read_trace

# engine.SLACK_TOL: the largest constraint slack an executed step may have
SLACK_TOL = 1e-9
# relative tolerance of the offline >= online comparison
UTILITY_TOL = 1e-9


def check_trace(path, expected_rows: int) -> tuple[list[str], float]:
    """Row count and per-step slack of one trace; also returns its utility total."""
    rows = read_trace(path)
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        slack = row["slack"]
        if slack is not None and slack > SLACK_TOL:
            problems.append(f"{path}: slot {row['t']:g} has slack {slack:.3e} > {SLACK_TOL:g}")
            break
    online = sum(row["utility"] for row in rows if row["utility"] is not None)
    return problems, online


def check_regret(regret: float | None, online_total: float, where: str) -> list[str]:
    """The offline total may not fall short of the online one."""
    if regret is None:
        return [f"{where}: no regret"]
    if regret < -UTILITY_TOL * (1.0 + abs(online_total)):
        return [f"{where}: offline utility below online by {-regret:.3e}"]
    return []


def check_regret_report(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    if doc.get("solver_converged") is not True:
        problems.append(f"{path}: solver_converged is {doc.get('solver_converged')!r}")
    offline, online = doc["offline_utility_total"], doc["online_utility_total"]
    problems += check_regret(offline - online, online, str(path))
    return problems


def check_summary(path, expected_rows: int) -> tuple[list[str], list[dict]]:
    rows = read_summary(path)
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{path}: {len(rows)} summary rows, expected {expected_rows}")
    return problems, rows


def same_bytes(a, b) -> list[str]:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        if fa.read() != fb.read():
            return [f"{b} differs from {a}"]
    return []
