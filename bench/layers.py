"""Per-layer metrics of the traced run.

Every share is a ratio with its base named in the metric: ``*.op_share``
is the layer's self time over the summed duration of the traced ops
(``cli.op`` spans); ``scenarios.loop_overhead_share`` is over the episode's
time per slot; ``trace.overhead_ratio`` is the traced op's median latency
over the untraced op's, both measured in the same run.
"""

from __future__ import annotations

import time
from collections import defaultdict

from trajsim import GyreSpec, parse_config, perturb_field, run_scenario, synth_field

import replay
from spans import LAYERS, layer_of, median, self_times_ns

SETUP_REPEATS = 3

# name -> unit, in the order the benchmark reports them
UNITS = {
    "engine.noise_draw_ns": "ns",
    "engine.step_ns": "ns",
    "field.sample_ns": "ns",
    "field.sample_calls_per_slot": "count",
    "objectives.gradient_ns": "ns",
    "objectives.step_size_ns": "ns",
    "sets.project_ns": "ns",
    "scenarios.episode_ms": "ms",
    "scenarios.us_per_slot": "us",
    "scenarios.loop_overhead_share": "ratio",
    "metrics.solve_ms": "ms",
    "metrics.solve_iterations": "count",
    "metrics.solve_us_per_iter": "us",
    "metrics.binding_cap_share": "ratio",
    "metrics.solve_converged_share": "ratio",
    "metrics.g_t_ms": "ms",
    "metrics.g_t_exact_share": "ratio",
    "metrics.energy_ms": "ms",
    "traces.emit_trace_ms": "ms",
    "traces.trace_bytes": "bytes",
    "traces.emit_summary_ms": "ms",
    "config.parse_ms": "ms",
    "field.synth_ms": "ms",
    "field.perturb_ms": "ms",
    "cli.op_ms": "ms",
    "cli.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
    **{f"{layer}.op_share": "ratio" for layer in LAYERS if layer != "cli"},
    "cli.unattributed_share": "ratio",
}


def _timed_ms(fn) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


def _field_layers(w) -> dict[str, float]:
    """Config parsing and field synthesis (set-up), and field perturbation (per episode)."""
    out = {"config.parse_ms": _timed_ms(lambda: parse_config(w.config_paths[0]))}
    cfg = w.cfgs[0]
    fld = cfg.ocean_field
    if fld is None:
        return {**out, "field.synth_ms": 0.0, "field.perturb_ms": 0.0}
    gyre = w.docs[0]["ocean"]["field"]["synthetic"]
    spec = GyreSpec(tuple(gyre["center_m"]), gyre["strength_mps"], gyre["radius_m"])
    out["field.synth_ms"] = _timed_ms(lambda: synth_field(spec, fld.x_grid, fld.y_grid, fld.t_grid))
    out["field.perturb_ms"] = _timed_ms(lambda: perturb_field(fld, cfg.perturbation))
    return out


def _per_slot(report, episode_us_per_slot: float, perturb_us_per_slot: float) -> dict[str, float]:
    calls = replay.per_call_ns(report)
    counts: dict[str, int] = {}
    with replay.counting(counts):
        run_scenario(report.config, benchmark=False)
    steps = max(report.horizon - 1, 1)
    # the projection runs inside the step, so it is not counted twice
    covered_ns = sum(
        counts[name] / steps * calls[name] for name in counts if name != "sets.project"
    )
    out = {f"{name}_ns": ns for name, ns in calls.items()}
    out["field.sample_calls_per_slot"] = counts["field.sample"] / steps
    # each episode perturbs the field once; that is not loop overhead either
    covered_ns += perturb_us_per_slot * 1e3
    out["scenarios.loop_overhead_share"] = 1.0 - covered_ns / (episode_us_per_slot * 1e3)
    return out


def per_layer_metrics(w, rec, stats, lat: dict) -> dict[str, float]:
    spans = rec.spans
    selfs = self_times_ns(spans)
    durations = defaultdict(list)
    layer_self = defaultdict(int)
    op_self = []
    for span, self_ns in zip(spans, selfs):
        durations[span.name].append(span.duration_ns / 1e6)
        layer_self[layer_of(span.name)] += self_ns
        if span.name == "cli.op":
            op_self.append(self_ns / 1e6)
    ops_ms = durations["cli.op"]
    op_total_ms = sum(ops_ms)
    episode_ms = durations["scenarios.episode"]
    slots = w.slots_per_op * len(ops_ms)
    us_per_slot = sum(episode_ms) * 1e3 / slots
    field_layers = _field_layers(w)
    perturb_us_per_slot = field_layers["field.perturb_ms"] * 1e3 * len(episode_ms) / slots
    solves = stats.solves
    iterations = sum(s["iterations"] for s in solves)
    out = {
        **_per_slot(stats.last_report, us_per_slot, perturb_us_per_slot),
        "scenarios.episode_ms": median(episode_ms),
        "scenarios.us_per_slot": us_per_slot,
        "metrics.solve_ms": median(durations["metrics.solve"]),
        "metrics.solve_iterations": median(s["iterations"] for s in solves),
        "metrics.solve_us_per_iter": (
            sum(s["ns"] for s in solves) / 1e3 / iterations if iterations else 0.0
        ),
        "metrics.binding_cap_share": sum(s["binding"] for s in solves) / len(solves) if solves else 0.0,
        "metrics.solve_converged_share": (
            sum(s["converged"] for s in solves) / len(solves) if solves else 0.0
        ),
        "metrics.g_t_ms": median(durations["metrics.g_t"]),
        "metrics.g_t_exact_share": (
            sum(stats.g_t_exact) / len(stats.g_t_exact) if stats.g_t_exact else 0.0
        ),
        "metrics.energy_ms": median(durations["metrics.energy"]),
        "traces.emit_trace_ms": median(durations["traces.emit_trace"]),
        "traces.trace_bytes": median(stats.trace_bytes),
        "traces.emit_summary_ms": median(durations["traces.emit_summary"]),
        **field_layers,
        "cli.op_ms": median(ops_ms),
        "cli.unattributed_ms": median(op_self),
        "trace.overhead_ratio": median(lat["traced"]) / median(lat["untraced"]),
        "cli.unattributed_share": layer_self["cli"] / 1e6 / op_total_ms,
    }
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.op_share"] = layer_self[layer] / 1e6 / op_total_ms
    return {name: out[name] for name in UNITS}
