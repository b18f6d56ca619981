"""Command-line surface.

Exit codes: 0 success, 2 configuration error, 3 infeasibility (no feasible
step size at some slot), 4 solver non-convergence.  ``TRAJSIM_SEED`` sets
the default seed; the ``--seed`` flag overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunManifest, load_config
from .errors import (
    InfeasibleStepSize,
    LatticeError,
    ParseError,
    RootExistence,
    SchemaError,
    UnitsError,
)
from .metrics import ORACLE_MAX_NODES, OracleGrid, dp_oracle, solve_offline
from .scenarios import (
    ADVERSARY_POLICIES,
    AdversaryParams,
    SweepRow,
    run_adversary,
    run_scenario,
    sweep,
)
from .traces import emit_summary, emit_trace, write_regret_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4

_CONFIG_ERRORS = (SchemaError, UnitsError, ParseError, LatticeError)


def _default_seed() -> int | None:
    raw = os.environ.get("TRAJSIM_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SchemaError("TRAJSIM_SEED", f"not an integer: {raw!r}")


def _load(args) -> tuple:
    cfg, digest = load_config(args.config)
    seed = args.seed if args.seed is not None else _default_seed()
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg, digest


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args) -> int:
    cfg, digest = _load(args)
    out = _outdir(args)
    if cfg.kind == "adversary":
        return _play_adversary(out, cfg.adversary, cfg.seed)
    report = run_scenario(cfg, mode=args.mode)
    trace_path = out / "trace.csv"
    summary_path = out / "summary.csv"
    emit_trace(report, trace_path)
    emit_summary([SweepRow("", "", report)], summary_path)
    RunManifest.create(digest, cfg.seed, [str(trace_path), str(summary_path)]).write(
        out / "manifest.json"
    )
    rr = report.regret_report
    if rr is not None:
        print(f"regret: {rr.regret:.6g}  final goal distance: {rr.final_goal_distance:.6g} m")
        if not rr.solver_converged:
            print(f"warning: offline benchmark did not converge ({rr.solver_warning})", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _trace_label(value: float) -> str:
    """A sweep row's value as its trace file names it: ``2.5`` -> ``2p5``, ``-1`` -> ``m1``."""
    return f"{value:g}".replace(".", "p").replace("-", "m")


def _cmd_sweep(args) -> int:
    cfg, digest = _load(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise SchemaError("--values", str(exc))
    labels = [_trace_label(v) for v in values]
    if len(set(labels)) < len(labels):
        same = sorted({label for label in labels if labels.count(label) > 1})
        raise SchemaError(
            "--values", f"values share a trace file name ({', '.join(same)}); give distinct values"
        )
    out = _outdir(args)
    rows = sweep(cfg, args.param, values, mode=args.mode)
    outputs = []
    for row in rows:
        if row.report is not None:
            trace_path = out / f"trace_{row.param}_{_trace_label(row.value)}.csv"
            emit_trace(row.report, trace_path)
            outputs.append(str(trace_path))
            rr = row.report.regret_report
            if rr is not None and not rr.solver_converged:
                detail = f"; {rr.solver_warning}" if rr.solver_warning else ""
                print(
                    f"warning: {row.param}={row.value:g}: offline benchmark did not converge "
                    f"({rr.solver_iterations} iterations{detail})",
                    file=sys.stderr,
                )
        else:
            print(f"warning: {row.param}={row.value:g} failed: {row.error}", file=sys.stderr)
    summary_path = out / "summary.csv"
    emit_summary(rows, summary_path)
    outputs.append(str(summary_path))
    RunManifest.create(digest, cfg.seed, outputs).write(out / "manifest.json")
    print(f"swept {args.param} over {len(values)} values -> {summary_path}")
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    cfg, digest = _load(args)
    out = _outdir(args)
    report = run_scenario(cfg)
    rr = report.regret_report
    report_path = out / "regret_report.json"
    write_regret_report(rr, report_path)
    trace_path = out / "trace.csv"
    emit_trace(report, trace_path)
    RunManifest.create(digest, cfg.seed, [str(report_path), str(trace_path)]).write(
        out / "manifest.json"
    )
    print(
        f"regret: {rr.regret:.6g}  S_T: {rr.s_t:.6g}  G_T: {rr.g_t:.6g}  "
        f"E_T: {rr.e_t_realized:.6g}"
    )
    if not rr.solver_converged:
        print(f"offline solver did not converge: {rr.solver_warning}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg, digest = _load(args)
    out = _outdir(args)
    try:
        nx, ny = (int(c) for c in args.grid.lower().split("x"))
    except ValueError:
        raise SchemaError("--grid", f"expected NxM, got {args.grid!r}")
    if not (2 <= nx <= ORACLE_MAX_NODES and 2 <= ny <= ORACLE_MAX_NODES):
        raise SchemaError(
            "--grid", f"needs 2 to {ORACLE_MAX_NODES} nodes per axis, got {args.grid!r}"
        )
    if cfg.horizon > 6:
        raise SchemaError(
            "delta_slots", f"oracle runs need horizon <= 6, this config gives {cfg.horizon}"
        )
    report = run_scenario(cfg, benchmark=False)
    problem = report.problem
    # concentrate the grid where the episode happened, not the whole region
    anchors = [*report.trajectory, *report.goals, cfg.start]
    pad = 2.0 * cfg.v_slot
    lo = (min(p[0] for p in anchors) - pad, min(p[1] for p in anchors) - pad)
    hi = (max(p[0] for p in anchors) + pad, max(p[1] for p in anchors) + pad)
    solution = solve_offline(problem, x0=report.trajectory)
    oracle = dp_oracle(problem, OracleGrid(lo, hi, nx, ny))
    doc = {
        "grid": f"{nx}x{ny}",
        "solver_utility": solution.utility,
        "oracle_utility": oracle.utility,
        "gap": solution.utility - oracle.utility,
        "solver_converged": solution.converged,
    }
    (out / "oracle.json").write_text(json.dumps(doc, indent=2) + "\n")
    RunManifest.create(digest, cfg.seed, [str(out / "oracle.json")]).write(out / "manifest.json")
    print(
        f"solver {solution.utility:.6g} vs oracle {oracle.utility:.6g} "
        f"(gap {solution.utility - oracle.utility:.3e})"
    )
    if not solution.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_adversary(args) -> int:
    try:
        adv = AdversaryParams(args.T, args.W, args.policy)
    except SchemaError as exc:
        flag = {"adversary.horizon": "--T", "adversary.width": "--W"}.get(exc.path, exc.path)
        raise SchemaError(flag, exc.message) from exc
    seed = args.seed if args.seed is not None else (_default_seed() or 0)
    return _play_adversary(_outdir(args), adv, seed)


def _play_adversary(out: Path, adv: AdversaryParams, seed: int) -> int:
    """Play the scalar game and write ``adversary.json`` with its lower bound ``W^2 T / 2``."""
    T, W = adv.horizon, adv.width
    value = run_adversary(adv, seed)
    bound = 0.5 * W**2 * T
    doc = {"T": T, "W": W, "policy": adv.policy, "regret": value, "lower_bound": bound}
    (out / "adversary.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(f"adversary regret {value:.6g} (lower bound {bound:.6g})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajsim",
        description="Online trajectory simulator with offline benchmarks and CSV traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one episode, emit trace + summary")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--mode", choices=["standard", "lookahead"], default="standard")
    run_p.add_argument("--out", required=True)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run one episode per parameter value")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--param", choices=["delta", "noise_sigma", "horizon"], required=True)
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--mode", choices=["standard", "lookahead"], default="standard")
    sweep_p.add_argument("--out", required=True)
    sweep_p.set_defaults(func=_cmd_sweep)

    bench_p = sub.add_parser("benchmark", help="offline solve + regret report")
    bench_p.add_argument("--config", required=True)
    bench_p.add_argument("--seed", type=int, default=None)
    bench_p.add_argument("--out", required=True)
    bench_p.set_defaults(func=_cmd_benchmark)

    oracle_p = sub.add_parser("oracle", help="compare the solver against the grid oracle")
    oracle_p.add_argument("--config", required=True)
    oracle_p.add_argument("--grid", default="41x41", help="grid resolution NxM")
    oracle_p.add_argument("--seed", type=int, default=None)
    oracle_p.add_argument("--out", required=True)
    oracle_p.set_defaults(func=_cmd_oracle)

    adv_p = sub.add_parser("adversary", help="worst-case scalar game")
    adv_p.add_argument("--T", type=int, required=True)
    adv_p.add_argument("--W", type=float, required=True)
    adv_p.add_argument("--policy", choices=ADVERSARY_POLICIES, default="ioga")
    adv_p.add_argument("--seed", type=int, default=None)
    adv_p.add_argument("--out", required=True)
    adv_p.set_defaults(func=_cmd_adversary)

    return parser


# the parser main() reuses, built at its first call: parse_args keeps no state
# from one call to the next, and building one costs about a millisecond
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command; safe to call repeatedly in one process.

    The parser is built once per process.  Everything a command reads
    besides its arguments, ``TRAJSIM_SEED`` included, is read per call.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleStepSize, RootExistence) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
