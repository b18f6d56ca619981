"""One workload process: set up, run ops closed-loop, check, measure.

Started by ``run.py``, never directly: the launcher pins the thread pools
and puts the checkout's ``src`` first on the import path before this
process imports numpy.  The result goes to the JSON file named by
``--result``; standard output is not used.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent

# an op count below this leaves no tail percentile with ten samples beyond it
MIN_OPS = 20
# hard stop for the timed loop, far below the run's time limit
MAX_LOOP_S = 120.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", help="where the traced run writes its spans")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Runner:
    """Closed loop over one workload: one op at a time, each checked."""

    def __init__(self, workload, work_dir: Path):
        self.w = workload
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)
        print(f"op failed: {what}", file=sys.stderr)

    def run(self, out: Path, k: int, op=None, compare=None, probe=None) -> float:
        """Issue one op on instance ``k`` into ``out`` and check it; returns its latency in s.

        ``op(out, k)`` replaces the workload's untraced op; ``compare(out)`` adds
        problems found against another op's outputs.  With a ``probe``
        (:class:`calib.SpeedProbe`) the op runs under it, and the probe's
        own time is not part of the latency.  A failed op still returns the
        time it took.
        """
        out.mkdir(parents=True, exist_ok=True)
        self.attempted += 1
        failure = None
        t0 = time.perf_counter()
        with probe or contextlib.nullcontext():
            try:
                (op or self.w.op)(out, k)
            except Exception:  # noqa: BLE001 - an op that raises is a failed op
                failure = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0 - (probe.spent_s if probe else 0.0)
        if failure is None:
            try:
                problems = self.w.check(out)
                if compare is not None and not problems:
                    problems = compare(out)
            except Exception:  # noqa: BLE001 - unreadable outputs fail the op
                problems = [traceback.format_exc(limit=3)]
            failure = "; ".join(problems[:3]) or None
        if failure is not None:
            self._fail(failure)
        return elapsed

    def final_check(self, out: Path) -> None:
        """The workload's once-per-run check; it reruns work, so it is one more op."""
        self.attempted += 1
        try:
            problems = self.w.final_check(out)
        except Exception:  # noqa: BLE001 - a check that raises fails its op
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self._fail("final check: " + "; ".join(problems[:3]))


def _end_to_end(runner: Runner, seconds: float) -> dict:
    w = runner.w
    reference = runner.work_dir / "op0"
    runner.run(reference, 0)  # warm-up, and the reference for the rerun check
    latencies: list[float] = []
    scales: list[float] = []
    scratch = runner.work_dir / "op"
    probe = calib.SpeedProbe()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= MIN_OPS) or elapsed >= MAX_LOOP_S:
            break
        latencies.append(runner.run(scratch, len(latencies) % w.instances, probe=probe))
        scales.append(probe.factor())
    runner.run(runner.work_dir / "rerun", 0, compare=lambda out: w.same_outputs(reference, out))
    runner.final_check(reference)
    return {"latencies": latencies, "scales": scales, "slots": w.slots_per_op * len(latencies)}


def _traced(runner: Runner, seconds: float, rec, stats) -> dict:
    """Alternate untraced and traced ops; traced outputs must match untraced ones."""
    w = runner.w
    plain, traced = runner.work_dir / "plain", runner.work_dir / "traced"
    runner.run(plain, 0)  # warm-up
    untraced_lat: list[float] = []
    traced_lat: list[float] = []
    op = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced_lat:
        k = op % w.instances
        untraced_lat.append(runner.run(plain, k))
        op += 1
        traced_lat.append(
            runner.run(
                traced,
                k,
                op=lambda out, k, op=op: w.traced_op(out, k, rec, op, stats),
                compare=lambda out: w.matches_untraced(plain, out),
            )
        )
    return {"untraced": untraced_lat, "traced": traced_lat}


def main(argv=None) -> int:
    # set-up is everything from the process's start to the first op, and the
    # speed probe follows it the way it follows an op
    with calib.SpeedProbe() as probe:
        args = _parse(argv)
        work_dir = Path(args.work_dir)
        work_dir.mkdir(parents=True, exist_ok=True)
        import numpy

        import trajsim
        from layers import UNITS, per_layer_metrics
        from ops import WORKLOAD_TYPES, TracedStats
        from spans import Recorder

        src = (ROOT / "src").resolve()
        if src not in Path(trajsim.__file__).resolve().parents:
            print(f"imported trajsim from {trajsim.__file__}, not from {src}", file=sys.stderr)
            return 2
        workload = WORKLOAD_TYPES[args.workload](args.seed, work_dir)
        ready = time.monotonic()
    result = {
        "ready": ready,
        "setup_probe_s": probe.spent_s,
        "setup_scale": probe.factor(),
        "numpy": numpy.__version__,
        "trajsim": trajsim.__version__,
    }
    if not args.setup_only:
        runner = Runner(workload, work_dir)
        if args.trace:
            rec, stats = Recorder(), TracedStats()
            lat = _traced(runner, args.seconds, rec, stats)
            result["metrics"] = per_layer_metrics(workload, rec, stats, lat)
            result["units"] = UNITS
            rec.write(args.spans)
        else:
            result.update(_end_to_end(runner, args.seconds))
        result.update(
            attempted=runner.attempted,
            failed=runner.failed,
            problems=runner.problems,
            slots_per_op=workload.slots_per_op,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
