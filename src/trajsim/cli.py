"""Command-line surface.

Exit codes: 0 success, 2 configuration error, 3 infeasibility (no feasible
step size at some slot), 4 solver non-convergence.  ``TRAJSIM_SEED`` sets
the default seed; the ``--seed`` flag overrides it.

A command runs ``_load``, then its flag checks, then ``_outdir``, so a
rejected command leaves no output directory; an episode command ends in
``_finish``, which writes the manifest and maps an unconverged offline
solve to exit 4.  An episode found infeasible (exit 3) leaves
``diagnostics.json`` in the directory its command made.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunManifest, load_config
from .errors import (
    InfeasibleStepSize, LatticeError, ParseError, RootExistence, SchemaError, UnitsError,
)
from .metrics import ORACLE_MAX_NODES, OracleGrid, dp_oracle, solve_offline
from .scenarios import (
    ADVERSARY_POLICIES, AdversaryParams, SweepRow, run_adversary, run_scenario, sweep,
)
from .traces import emit_summary, emit_trace, write_json, write_regret_report

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


def _load(args, game: bool = False) -> tuple:
    """The seeded config and its digest; an adversary game is accepted only if ``game``."""
    cfg, digest = load_config(args.config)
    seed = args.seed if args.seed is not None else _default_seed()
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if cfg.kind == "adversary" and not game:
        raise SchemaError("kind", f"no episode runner for kind {cfg.kind!r}")
    return cfg, digest


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _unconverged(rr) -> str:
    """The warning for an unconverged offline solve: its iteration count, and its own warning."""
    detail = f"; {rr.solver_warning}" if rr.solver_warning else ""
    return f"offline benchmark did not converge ({rr.solver_iterations} iterations{detail})"


def _finish(out: Path, digest: str, seed: int, names, converged=True, warning=None) -> int:
    """Write the manifest listing ``names``; an unconverged solve exits 4, ``warning`` on stderr."""
    RunManifest.create(digest, seed, [str(out / n) for n in names]).write(out / "manifest.json")
    if converged:
        return EXIT_OK
    if warning:
        print(warning, file=sys.stderr)
    return EXIT_NO_CONVERGENCE


def _diagnose(out: Path, code: int, exc: Exception) -> None:
    """Write ``diagnostics.json`` into ``out``, if the command made it: exit code, slot, error."""
    if out.is_dir():
        doc = {"exit_code": code, "slot": getattr(exc, "slot", None), "error": str(exc)}
        write_json(doc, out / "diagnostics.json")


def _cmd_run(args) -> int:
    cfg, digest = _load(args, game=True)
    out = _outdir(args)
    if cfg.kind == "adversary":
        return _play_adversary(out, cfg.adversary, cfg.seed)
    report = run_scenario(cfg, mode=args.mode)
    emit_trace(report, out / "trace.csv")
    emit_summary([SweepRow("", "", report)], out / "summary.csv")
    rr = report.regret_report
    print(f"regret: {rr.regret:.6g}  final goal distance: {rr.final_goal_distance:.6g} m")
    warning = f"warning: {_unconverged(rr)}"
    names = ["trace.csv", "summary.csv"]
    return _finish(out, digest, cfg.seed, names, rr.solver_converged, warning)


def _trace_label(value: float) -> str:
    """A sweep row's value as its trace file names it: ``2.5`` -> ``2p5``, ``-1`` -> ``m1``."""
    return f"{value:g}".replace(".", "p").replace("-", "m")


def _cmd_sweep(args) -> int:
    cfg, digest = _load(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise SchemaError("--values", str(exc))
    if not values:
        raise SchemaError("--values", "sweep needs at least one value")
    labels = [_trace_label(v) for v in values]
    if len(set(labels)) < len(labels):
        same = sorted({label for label in labels if labels.count(label) > 1})
        raise SchemaError(
            "--values", f"values share a trace file name ({', '.join(same)}); give distinct values"
        )
    out = _outdir(args)
    rows = sweep(cfg, args.param, values, mode=args.mode)
    names = []
    for row in rows:
        if row.report is None:
            print(f"warning: {row.param}={row.value:g} failed: {row.error}", file=sys.stderr)
            continue
        names.append(f"trace_{row.param}_{_trace_label(row.value)}.csv")
        emit_trace(row.report, out / names[-1])
        rr = row.report.regret_report
        if not rr.solver_converged:
            print(f"warning: {row.param}={row.value:g}: {_unconverged(rr)}", file=sys.stderr)
    names.append("summary.csv")
    emit_summary(rows, out / "summary.csv")
    print(f"swept {args.param} over {len(values)} values -> {out / 'summary.csv'}")
    return _finish(out, digest, cfg.seed, names)


def _cmd_benchmark(args) -> int:
    cfg, digest = _load(args)
    out = _outdir(args)
    report = run_scenario(cfg)
    rr = report.regret_report
    write_regret_report(rr, out / "regret_report.json")
    emit_trace(report, out / "trace.csv")
    print(
        f"regret: {rr.regret:.6g}  S_T: {rr.s_t:.6g}  G_T: {rr.g_t:.6g}  "
        f"E_T: {rr.e_t_realized:.6g}"
    )
    warning = f"warning: {_unconverged(rr)}"
    names = ["regret_report.json", "trace.csv"]
    return _finish(out, digest, cfg.seed, names, rr.solver_converged, warning)


def _cmd_oracle(args) -> int:
    cfg, digest = _load(args)
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
    out = _outdir(args)
    report = run_scenario(cfg, benchmark=False)
    # concentrate the grid where the episode happened, not the whole region
    anchors = [*report.trajectory, *report.goals, cfg.start]
    pad = 2.0 * cfg.v_slot
    lo = (min(p[0] for p in anchors) - pad, min(p[1] for p in anchors) - pad)
    hi = (max(p[0] for p in anchors) + pad, max(p[1] for p in anchors) + pad)
    solution = solve_offline(report.problem, x0=report.trajectory)
    oracle = dp_oracle(report.problem, OracleGrid(lo, hi, nx, ny))
    gap = solution.utility - oracle.utility
    doc = {
        "grid": f"{nx}x{ny}",
        "solver_utility": solution.utility,
        "oracle_utility": oracle.utility,
        "gap": gap,
        "solver_converged": solution.converged,
    }
    write_json(doc, out / "oracle.json")
    print(f"solver {solution.utility:.6g} vs oracle {oracle.utility:.6g} (gap {gap:.3e})")
    return _finish(out, digest, cfg.seed, ["oracle.json"], solution.converged)


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
    write_json(doc, out / "adversary.json")
    print(f"adversary regret {value:.6g} (lower bound {bound:.6g})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajsim",
        description="Online trajectory simulator with offline benchmarks and CSV traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {}
    for name, func, help_text in (
        ("run", _cmd_run, "run one episode, emit trace + summary"),
        ("sweep", _cmd_sweep, "run one episode per parameter value"),
        ("benchmark", _cmd_benchmark, "offline solve + regret report"),
        ("oracle", _cmd_oracle, "compare the solver against the grid oracle"),
        ("adversary", _cmd_adversary, "worst-case scalar game"),
    ):
        cmds[name] = p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if name != "adversary":
            p.add_argument("--config", required=True)
    # each command's own flags, between --config and the shared tail
    params = ["delta", "noise_sigma", "horizon"]
    cmds["sweep"].add_argument("--param", choices=params, required=True)
    cmds["sweep"].add_argument("--values", required=True, help="comma-separated values")
    cmds["oracle"].add_argument("--grid", default="41x41", help="grid resolution NxM")
    cmds["adversary"].add_argument("--T", type=int, required=True)
    cmds["adversary"].add_argument("--W", type=float, required=True)
    cmds["adversary"].add_argument("--policy", choices=ADVERSARY_POLICIES, default="ioga")
    for name, p in cmds.items():
        p.add_argument("--seed", type=int, default=None)
        if name in ("run", "sweep"):
            p.add_argument("--mode", choices=["standard", "lookahead"], default="standard")
        p.add_argument("--out", required=True)
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
        _diagnose(Path(args.out), EXIT_INFEASIBLE, exc)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
