"""What one op of each workload does, untraced and as traced public pieces.

An untraced op is what one user command does: ``trajsim benchmark`` and
``trajsim sweep`` go through ``trajsim.cli.main`` in-process, and the long
voyage calls the library the way acceptance criterion c13 does.  The traced
op re-issues the same work as its public calls, each wrapped in a span, in
the order ``parse_config``, ``run_scenario(benchmark=False)``,
``solve_offline``, ``gradient_variation``, ``energy_cost``, then the
emitters.  Its trace files must match the untraced op's byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from trajsim import (
    RegretReport,
    RunManifest,
    SweepRow,
    config_hash,
    cumulative_error,
    emit_summary,
    emit_trace,
    energy_cost,
    gradient_variation,
    parse_config,
    read_summary,
    run_scenario,
    solve_offline,
    squared_path_length,
    straight_line_trajectory,
    sweep,
)
from trajsim.cli import main as cli_main
from trajsim.traces import write_regret_report

import checks
from spans import Recorder
from workloads import GENERATORS, SWEEP_DELTAS

# a cap counts as binding when the solved step uses this share of its radius
BINDING_SHARE = 1.0 - 1e-6


class OpFailed(Exception):
    pass


@dataclass
class TracedStats:
    """What the traced ops learned beyond their spans."""

    solves: list[dict] = field(default_factory=list)
    g_t_exact: list[bool] = field(default_factory=list)
    trace_bytes: list[int] = field(default_factory=list)
    last_report: object = None


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise OpFailed(f"trajsim {argv[0]} exited with code {code}")


def _binding_share(problem, points) -> float:
    caps = problem.caps
    if not caps:
        return 0.0
    bound = sum(
        1
        for cap, a, b in zip(caps, points, points[1:])
        if math.hypot(b[0] - a[0] - cap.center[0], b[1] - a[1] - cap.center[1])
        >= BINDING_SHARE * cap.radius
    )
    return bound / len(caps)


def _regret_pieces(report, rec: Recorder, op: int, solved: list) -> RegretReport:
    """``build_regret_report`` issued as its public calls."""
    problem, traj, cfg = report.problem, report.trajectory, report.config
    index = len(rec.spans)
    with rec.span("metrics.solve", op):
        sol = solve_offline(problem, x0=traj)
    solved.append((problem, sol, rec.spans[index].duration_ns))
    us = problem.utilities
    offline_u = tuple(u(p) for u, p in zip(us.values, sol.points))
    online_u = tuple(u(p) for u, p in zip(us.values, traj))
    with rec.span("metrics.g_t", op):
        gv = gradient_variation(us, problem.region)
    goal = report.goals[-1]
    tau = cfg.slot_duration_s
    with rec.span("metrics.energy", op):
        energy_online = energy_cost(traj, cfg.ocean_field, cfg.drag_coefficient, tau)
    straight = straight_line_trajectory(traj[0], goal, len(traj))
    with rec.span("metrics.energy", op):
        energy_straight = energy_cost(straight, cfg.ocean_field, cfg.drag_coefficient, tau)
    return RegretReport(
        offline_utilities=offline_u,
        online_utilities=online_u,
        regret=sum(offline_u) - sum(online_u),
        s_t=squared_path_length(sol.points),
        g_t=gv.value,
        g_t_exact=gv.exact,
        e_t_bound=cumulative_error([r.eps_sq_bound for r in report.records]),
        e_t_realized=cumulative_error([r.eps_sq_realized for r in report.records]),
        energy_online=energy_online,
        energy_straight=energy_straight,
        final_goal_distance=math.dist(traj[-1], goal),
        solver_converged=sol.converged,
        solver_warning=sol.warning,
    )


def _record_solves(solved: list, stats: TracedStats) -> None:
    for problem, sol, ns in solved:
        stats.solves.append(
            {
                "ns": ns,
                "iterations": sol.iterations,
                "converged": sol.converged,
                "binding": _binding_share(problem, sol.points),
            }
        )


class Workload:
    """One seeded instance and the op issued against it."""

    name = ""
    # files a rerun must reproduce byte for byte, relative to the op's out dir
    outputs: tuple[str, ...] = ()
    # the trace files among them, which the traced op must reproduce too
    traces: tuple[str, ...] = ()

    def __init__(self, seed: int, work_dir: Path):
        self.docs = GENERATORS[self.name](seed)
        self.config_paths = [work_dir / f"config{k}.json" for k in range(len(self.docs))]
        for doc, path in zip(self.docs, self.config_paths):
            path.write_text(json.dumps(doc, indent=2, allow_nan=False), encoding="utf-8")
        self.cfgs = [parse_config(path) for path in self.config_paths]
        # every instance has the same horizon and shape
        self.horizon = self.cfgs[0].horizon

    @property
    def instances(self) -> int:
        return len(self.cfgs)

    @property
    def slots_per_op(self) -> int:
        return self.horizon

    def op(self, out: Path, k: int) -> None:
        """Issue the op on instance ``k``."""
        raise NotImplementedError

    def traced_op(self, out: Path, k: int, rec: Recorder, op: int, stats: TracedStats) -> None:
        raise NotImplementedError

    def check(self, out: Path) -> list[str]:
        raise NotImplementedError

    def regrets(self, out: Path) -> list[float]:
        return []

    def final_check(self, out: Path) -> list[str]:
        """Checks that need more than the op's files; run once per run."""
        return []

    def same_outputs(self, ref: Path, out: Path) -> list[str]:
        """A seeded rerun in ``out`` must repeat the op in ``ref`` byte for byte."""
        return [p for name in self.outputs for p in checks.same_bytes(ref / name, out / name)]

    def matches_untraced(self, ref: Path, out: Path) -> list[str]:
        """The traced op in ``out``: the untraced op's traces and regrets."""
        problems = [p for name in self.traces for p in checks.same_bytes(ref / name, out / name)]
        for a, b in zip(self.regrets(ref), self.regrets(out)):
            if abs(a - b) > checks.UTILITY_TOL * (1.0 + abs(a)):
                problems.append(f"{out}: regret {b!r} differs from {a!r}")
        return problems


class VoyageLong(Workload):
    name = "voyage-long"
    outputs = ("trace.csv", "summary.csv")
    traces = ("trace.csv",)

    def op(self, out: Path, k: int) -> None:
        report = run_scenario(self.cfgs[k], benchmark=False)
        emit_trace(report, out / "trace.csv")
        emit_summary([SweepRow("", "", report)], out / "summary.csv")

    def traced_op(self, out, k, rec, op, stats):
        stats.last_report = None  # hold one episode at a time, like the untraced op
        with rec.span("cli.op", op):
            with rec.span("scenarios.episode", op):
                report = run_scenario(self.cfgs[k], benchmark=False)
            with rec.span("traces.emit_trace", op):
                emit_trace(report, out / "trace.csv")
            with rec.span("traces.emit_summary", op):
                emit_summary([SweepRow("", "", report)], out / "summary.csv")
        stats.trace_bytes.append((out / "trace.csv").stat().st_size)
        stats.last_report = report

    def check(self, out):
        problems, _ = checks.check_trace(out / "trace.csv", self.horizon)
        return problems + checks.check_summary(out / "summary.csv", 1)[0]


class CommuteRegret(Workload):
    name = "commute-regret"
    outputs = ("trace.csv", "regret_report.json")
    traces = ("trace.csv",)

    def op(self, out: Path, k: int) -> None:
        _cli(["benchmark", "--config", str(self.config_paths[k]), "--out", str(out)])

    def traced_op(self, out, k, rec, op, stats):
        stats.last_report = None  # hold one episode at a time, like the untraced op
        solved: list = []
        with rec.span("cli.op", op):
            with rec.span("config.parse", op):
                cfg = parse_config(self.config_paths[k])
            with rec.span("config.hash", op):
                digest = config_hash(self.config_paths[k])
            with rec.span("scenarios.episode", op):
                report = run_scenario(cfg, benchmark=False)
            report.regret_report = _regret_pieces(report, rec, op, solved)
            with rec.span("traces.emit_report", op):
                write_regret_report(report.regret_report, out / "regret_report.json")
            with rec.span("traces.emit_trace", op):
                emit_trace(report, out / "trace.csv")
            with rec.span("traces.emit_manifest", op):
                outputs = [str(out / "regret_report.json"), str(out / "trace.csv")]
                RunManifest.create(digest, cfg.seed, outputs).write(out / "manifest.json")
        _record_solves(solved, stats)
        stats.g_t_exact.append(report.regret_report.g_t_exact)
        stats.trace_bytes.append((out / "trace.csv").stat().st_size)
        stats.last_report = report

    def check(self, out):
        problems, _ = checks.check_trace(out / "trace.csv", self.horizon)
        return problems + checks.check_regret_report(out / "regret_report.json")

    def regrets(self, out):
        with open(out / "regret_report.json", encoding="utf-8") as fh:
            return [json.load(fh)["regret"]]


class CommuteHuber(CommuteRegret):
    name = "commute-huber"


class VoyageSweep(Workload):
    name = "voyage-sweep"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.values = [float(d) for d in SWEEP_DELTAS]
        t_eta = self.cfgs[0].t_eta
        self.horizons = [t_eta + d for d in SWEEP_DELTAS]
        self.traces = tuple(f"trace_delta_{d}.csv" for d in SWEEP_DELTAS)
        self.outputs = self.traces + ("summary.csv",)

    @property
    def slots_per_op(self) -> int:
        return sum(self.horizons)

    def op(self, out: Path, k: int) -> None:
        values = ",".join(str(d) for d in SWEEP_DELTAS)
        _cli(["sweep", "--config", str(self.config_paths[k]), "--param", "delta",
              "--values", values, "--out", str(out)])

    def traced_op(self, out, k, rec, op, stats):
        stats.last_report = None  # hold one episode at a time, like the untraced op
        solved: list = []
        rows = []
        with rec.span("cli.op", op):
            with rec.span("config.parse", op):
                cfg = parse_config(self.config_paths[k])
            with rec.span("config.hash", op):
                digest = config_hash(self.config_paths[k])
            for value, name in zip(self.values, self.traces):
                with rec.span("scenarios.episode", op):
                    (row,) = sweep(cfg, "delta", [value], benchmark=False)
                if row.report is None:
                    raise OpFailed(f"delta={value:g} failed: {row.error}")
                row.report.regret_report = _regret_pieces(row.report, rec, op, solved)
                with rec.span("traces.emit_trace", op):
                    emit_trace(row.report, out / name)
                rows.append(row)
            with rec.span("traces.emit_summary", op):
                emit_summary(rows, out / "summary.csv")
            with rec.span("traces.emit_manifest", op):
                outputs = [str(out / n) for n in self.outputs]
                RunManifest.create(digest, cfg.seed, outputs).write(out / "manifest.json")
        _record_solves(solved, stats)
        stats.g_t_exact += [row.report.regret_report.g_t_exact for row in rows]
        stats.trace_bytes += [(out / n).stat().st_size for n in self.traces]
        stats.last_report = rows[-1].report

    def check(self, out):
        problems, rows = checks.check_summary(out / "summary.csv", len(self.values))
        for row, name, horizon in zip(rows, self.traces, self.horizons):
            found, online = checks.check_trace(out / name, horizon)
            problems += found + checks.check_regret(row["regret"], online, str(out / name))
        return problems

    def regrets(self, out):
        return [row["regret"] for row in read_summary(out / "summary.csv")]

    def final_check(self, out):
        """The sweep command does not report convergence; ask the library."""
        problems = []
        for row in sweep(self.cfgs[0], "delta", self.values):
            if row.report is None:
                problems.append(f"delta={row.value:g} failed: {row.error}")
            elif not row.report.regret_report.solver_converged:
                problems.append(f"delta={row.value:g}: offline solve did not converge")
        return problems


WORKLOAD_TYPES = {w.name: w for w in (VoyageLong, CommuteRegret, CommuteHuber, VoyageSweep)}
