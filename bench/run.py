"""trajsim benchmark: one workload, one seed, measured for a fixed time.

Usage, from the root of a checkout::

    python3 bench/run.py --workload voyage-long --seed 1 --seconds 20 --trace 0

The launcher imports nothing but the standard library.  It pins the BLAS
and OpenMP thread pools to one thread, then starts the workload in
processes of its own (``worker.py``): a few that only set up, for the
set-up time, and one that sets up and runs ops closed-loop for
``--seconds``, so that peak memory is the workload's own.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer ones from a separate traced run.  It prints every metric with its
unit, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (machine, versions,
revision, source size, op counts) and the traced run's spans are written
under ``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from spans import median, tail
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# set-up samples per run: set-up-only processes before and after the measured
# one, so that the samples span the run's drift in machine speed
SETUP_ONLY_BEFORE = 3
SETUP_ONLY_AFTER = 3
# a run must end well inside three minutes
RUN_DEADLINE_S = 170.0

PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "slots_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class RunFailed(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description="trajsim benchmark (see bench/README.md)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    # the checkout's sources, never an installed trajsim
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT / "bench")])
    # a seed from the caller's environment would change every CLI op
    env.pop("TRAJSIM_SEED", None)
    return env


def _worker(args, run_dir: Path, name: str, deadline: float, *extra: str) -> dict:
    """Start one worker process, wait for it, return its result and set-up time."""
    result_path = run_dir / f"{name}.json"
    cmd = [
        sys.executable, str(ROOT / "bench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(run_dir / name), "--result", str(result_path), *extra,
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed(f"{name} did not finish in time")
    finally:
        shutil.rmtree(run_dir / name, ignore_errors=True)
    if code != 0:
        raise RunFailed(f"{name} exited with code {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    # the speed probe's own time is not set-up; see calib.py
    result["setup_wall_s"] = result["ready"] - spawned - result["setup_probe_s"]
    result["setup_s"] = result["setup_wall_s"] * result["setup_scale"]
    return result


def _git_revision() -> str | None:
    """HEAD of the checkout, read from its files; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "trajsim").glob("*.py")
    )


def _end_to_end(main: dict, setup: list[float]) -> tuple[dict, dict]:
    """Timings scaled to the reference core (see calib.py); the record keeps the wall times."""
    wall_ms = [s * 1e3 for s in main["latencies"]]
    scaled_ms = [w * f for w, f in zip(wall_ms, main["scales"])]
    tail_ms, tail_pct, n = tail(scaled_ms)
    metrics = {
        "setup_s": median(setup),
        "slots_per_s": main["slots"] / (sum(scaled_ms) / 1e3),
        "op_p50_ms": median(scaled_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    record = {
        "op_tail_percentile": tail_pct,
        "op_count": n,
        "op_wall_ms": wall_ms,
        "speed_factors": main["scales"],
    }
    return metrics, record


def run(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "trajsim" / "__init__.py").is_file():
        print(f"no trajsim sources under {SRC}; run from a trajsim checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    before, after = (0, 0) if args.trace else (SETUP_ONLY_BEFORE, SETUP_ONLY_AFTER)
    try:
        setups = [
            _worker(args, run_dir, f"setup{i}", deadline, "--setup-only") for i in range(before)
        ]
        extra = ("--spans", str(run_dir / "spans.json")) if args.trace else ()
        main = _worker(args, run_dir, "main", deadline, *extra)
        setups.append(main)
        setups += [
            _worker(args, run_dir, f"setup{before + i}", deadline, "--setup-only")
            for i in range(after)
        ]
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setup = [s["setup_s"] for s in setups]
    setup_wall = [s["setup_wall_s"] for s in setups]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": main["numpy"],
        "trajsim": main["trajsim"],
        "git_revision": _git_revision(),
        "src_trajsim_lines": _src_lines(),
        "pinned_threads": PINNED_THREADS,
        "setup_samples_s": setup,
        "setup_wall_samples_s": setup_wall,
        "slots_per_op": main["slots_per_op"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "fail_share": main["failed"] / main["attempted"],
        "problems": main["problems"],
    }
    if args.trace:
        metrics, units = main["metrics"], main["units"]
        record["spans"] = str((run_dir / "spans.json").relative_to(ROOT))
    else:
        metrics, extra_record = _end_to_end(main, setup)
        units = END_TO_END_UNITS
        record.update(extra_record)
    record["metrics"] = metrics
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for key in ("workload", "seed", "nproc", "cpu_model", "python", "numpy", "git_revision",
                "src_trajsim_lines", "op_count", "op_tail_percentile", "attempted", "failed",
                "fail_share"):
        if key in record:
            print(f"# {key}: {record[key]}")
    for problem in record["problems"]:
        print(f"# problem: {problem.strip().splitlines()[-1]}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"# record: {(run_dir / 'record.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run())
