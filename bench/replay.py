"""Per-call costs of the per-slot layers, from an episode's recorded inputs.

After the traced ops, the benchmark replays the last episode's inputs
through each public per-slot call (noise draw, projected step, field sample,
gradient, step size, box projection) and times the calls in bulk.  A
separate counting pass runs one more episode with call counters wrapped
around the same functions, so that the per-slot cost the calls explain can
be set against the episode's measured time per slot.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import trajsim.engine
import trajsim.objectives
import trajsim.scenarios
import trajsim.sets
from trajsim import (
    EngineState,
    d2d_gradient,
    d2d_step_size,
    ioga_step,
    leading_path,
    ocean_gradient,
    ocean_step_size,
    sample_velocity,
)

REPEATS = 5

# (owner, attribute) pairs the counting pass wraps, by layer call
SPIED = {
    "engine.noise_draw": [(trajsim.engine.NoiseModel, "draw")],
    "engine.step": [(trajsim.engine, "ioga_step")],
    "field.sample": [(trajsim.scenarios, "sample_velocity")],
    "objectives.gradient": [
        (trajsim.objectives, "ocean_gradient"),
        (trajsim.objectives, "d2d_gradient"),
    ],
    "objectives.step_size": [
        (trajsim.objectives, "ocean_step_size"),
        (trajsim.objectives, "d2d_step_size"),
    ],
    "sets.project": [(trajsim.sets.Box2D, "project")],
}


@contextmanager
def counting(counts: dict[str, int]):
    """Count calls of the :data:`SPIED` functions while the block runs.

    A function the program no longer has is skipped and counts zero.
    """
    saved = []
    try:
        for call, targets in SPIED.items():
            counts.setdefault(call, 0)
            for owner, attr in targets:
                original = owner.__dict__.get(attr)
                if original is None:
                    continue

                def wrapper(*args, _f=original, _call=call, **kwargs):
                    counts[_call] += 1
                    return _f(*args, **kwargs)

                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield counts
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ns_per_call(fn, arglist) -> float:
    if not arglist:
        return 0.0
    best = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for args in arglist:
            fn(*args)
        best.append((time.perf_counter_ns() - t0) / len(arglist))
    best.sort()
    return best[len(best) // 2]


def per_call_ns(report) -> dict[str, float]:
    """Median ns per call of each per-slot public call, over the episode's inputs."""
    cfg = report.config
    recs = report.records
    region = report.problem.region
    caps = report.problem.caps
    v = cfg.v_slot
    tau = cfg.slot_duration_s
    noise = cfg.gradient_noise
    steps = [
        (EngineState(r.t, r.x_before, r.x_before), r.grad_tilde, r.gamma, region) for r in recs
    ]
    targets = [
        ((r.x_before[0] + r.grad_tilde[0] / r.gamma, r.x_before[1] + r.grad_tilde[1] / r.gamma),)
        for r in recs
    ]
    out = {
        "engine.noise_draw": _ns_per_call(noise.draw, [(r.t,) for r in recs]),
        "engine.step": _ns_per_call(ioga_step, steps),
        "sets.project": _ns_per_call(region.project, targets),
    }
    if cfg.kind == "ocean":
        out["field.sample"] = _ns_per_call(
            sample_velocity, [(cfg.ocean_field, r.x_before, (r.t - 1) * tau) for r in recs]
        )
        out["objectives.gradient"] = _ns_per_call(
            ocean_gradient,
            [(r.x_before, report.goals[r.t - 1], caps[r.t - 1].center, report.lambdas[r.t - 1])
             for r in recs],
        )
        out["objectives.step_size"] = _ns_per_call(
            ocean_step_size,
            [(r.grad_tilde, caps[r.t - 1].center, report.alphas[r.t - 1], v) for r in recs],
        )
    else:
        leads = [
            leading_path(cfg.peer.at(r.t, tau), report.goals[r.t - 1], 1.0 - report.lambdas[r.t - 1])
            for r in recs
        ]
        out["field.sample"] = 0.0
        out["objectives.gradient"] = _ns_per_call(
            d2d_gradient, [(r.x_before, e, v, cfg.mu) for r, e in zip(recs, leads)]
        )
        gbars, running = [], 0.0
        for r in recs:
            running = max(running, (r.grad_tilde[0] ** 2 + r.grad_tilde[1] ** 2) ** 0.5)
            gbars.append(running)
        out["objectives.step_size"] = _ns_per_call(
            d2d_step_size, [(g, v, 1.0, cfg.alpha_min) for g in gbars]
        )
    return out
