"""Seeded instance generators for the four benchmark workloads.

Every generator is a pure function of the workload seed and returns a list
of strict JSON documents that ``trajsim.parse_config`` accepts, one per
instance; the timed ops go round the instances in order.  The seed moves
geometry and field by small amounts and draws every noise stream.  The
horizon and the shape of an instance stay fixed, so the work an op does
depends on the seed only through the noise.

``alpha_min`` is always written out, so a change of the parser default
cannot change a workload.
"""

from __future__ import annotations

import math
import random

# Held out: never used while tuning the benchmark or a change; rerun a claim
# on it before reporting the claim.
HELD_OUT_SEED = 20011

VOYAGE_LONG_T = 10_000
COMMUTE_REGRET_T = 2048
COMMUTE_HUBER_T = 128
# Instances per commute run.  The noisy online path is where the offline
# solve starts, and the solve's iteration count moves by about ±7% from one
# noise draw to the next, and by far more on a rare draw.  Each timed
# op of a run gets its own draw, so a run's median is taken over many starts
# and a solver that is slow on hard starts shows in it.
COMMUTE_INSTANCES = 32
# deltas on top of the 64-slot straight run: T = 64 .. 151 over 30 rows
SWEEP_DELTAS = tuple(range(0, 90, 3))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _polar(origin, length, angle):
    return [origin[0] + length * math.cos(angle), origin[1] + length * math.sin(angle)]


def voyage_long(seed: int) -> list[dict]:
    """A 10k-slot voyage across a 100x100x10 gyre field (acceptance c13)."""
    r = _rng("voyage-long", seed)
    start = [500.0 + r.uniform(-50.0, 50.0), 500.0 + r.uniform(-50.0, 50.0)]
    # exactly 9000 m of straight run plus 1000 slack slots
    goal = _polar(start, 9000.0, math.radians(45.0 + r.uniform(-2.0, 2.0)))
    return [{
        "kind": "ocean",
        "seed": r.randrange(1, 1 << 30),
        "slot_duration_s": 1.0,
        "start_m": start,
        "goal_m": goal,
        "delta_slots": VOYAGE_LONG_T - 9000,
        "v_max_mps": 1.0,
        "ocean": {
            "lambda_strategy": "direction_dependent",
            "beta": 0.3,
            "drag_coefficient": 1.0,
            "field": {
                "synthetic": {
                    "kind": "single_gyre",
                    "center_m": [5000.0 + r.uniform(-200.0, 200.0), 5000.0 + r.uniform(-200.0, 200.0)],
                    "strength_mps": 0.4,
                    "radius_m": 3000.0,
                },
                "x_grid_m": {"min": 0, "max": 10000, "n": 100},
                "y_grid_m": {"min": 0, "max": 10000, "n": 100},
                "t_grid_s": {"min": 0, "max": 10000, "n": 10},
            },
            "perturbation": {"sigma_fraction": 0.05, "seed": r.randrange(1, 1 << 30)},
        },
        "gradient_noise": {
            "kind": "gaussian_decaying",
            "eps0": 0.05,
            "decay_q": 1.0,
            "seed": r.randrange(1, 1 << 30),
        },
    }]


def _commute(workload: str, seed: int, utility: str, horizon: int) -> list[dict]:
    """Commutes whose peer walks at twice the agent's speed cap.

    The peer starts ahead of the agent and walks back across its path, so
    the clairvoyant path bends and the offline solve needs thousands of
    iterations.  The seed rotates and shifts the geometry, which all
    instances share, and draws each instance's master seed (the peer's
    noise) and gradient-noise seed.
    """
    r = _rng(workload, seed)
    angle = math.radians(r.uniform(-20.0, 20.0))
    shift = (r.uniform(-20.0, 20.0), r.uniform(-20.0, 20.0))

    def place(x: float, y: float) -> list[float]:
        c, s = math.cos(angle), math.sin(angle)
        return [shift[0] + c * x - s * y, shift[1] + s * x + c * y]

    straight = round(0.43 * horizon)
    diag = straight / math.sqrt(2.0)
    return [
        {
            "kind": "d2d",
            "seed": r.randrange(1, 1 << 30),
            "slot_duration_s": 1.0,
            "start_m": place(0.0, 0.0),
            "goal_m": place(diag, diag),
            "peer": {
                "from_m": place(0.18 * horizon, -0.07 * horizon),
                "to_m": place(0.35 * horizon, 0.17 * horizon),
                "speed_mps": 2.0,
                "noise_std_m": 1.0,
            },
            "delta_slots": horizon - straight,
            "v_max_mps": 1.0,
            "d2d": {
                "mu": 0.001,
                "utility": utility,
                "alpha_min": 0.05,
                "margin": 1.01,
                "alpha_p": 2.5,
                "bandwidth_hz": 1e7,
                "noise_power": 0.2,
            },
            "gradient_noise": {
                "kind": "gaussian_decaying",
                "eps0": 0.1,
                "decay_q": 1.0,
                "seed": r.randrange(1, 1 << 30),
            },
        }
        for _ in range(COMMUTE_INSTANCES)
    ]


def commute_regret(seed: int) -> list[dict]:
    return _commute("commute-regret", seed, "squared", COMMUTE_REGRET_T)


def commute_huber(seed: int) -> list[dict]:
    return _commute("commute-huber", seed, "huber", COMMUTE_HUBER_T)


def voyage_sweep(seed: int) -> list[dict]:
    """A seeded variant of ``configs/voyage.json`` (64 straight-run slots).

    The seed shifts the whole instance, field lattice included, and sets
    the master seed.  The noise streams carry no seed of their own, so each
    sweep row derives fresh ones from its row seed.
    """
    r = _rng("voyage-sweep", seed)
    dx, dy = r.uniform(-50.0, 50.0), r.uniform(-50.0, 50.0)
    return [{
        "kind": "ocean",
        "seed": r.randrange(1, 1 << 30),
        "slot_duration_s": 1.0,
        "start_m": [15.0 + dx, 15.0 + dy],
        "goal_m": [60.0 + dx, 60.0 + dy],
        "delta_slots": 0,
        "v_max_mps": 1.0,
        "ocean": {
            "lambda_strategy": "direction_dependent",
            "beta": 0.4,
            "drag_coefficient": 1.0,
            "field": {
                "synthetic": {
                    "kind": "single_gyre",
                    "center_m": [40.0 + dx, 30.0 + dy],
                    "strength_mps": 0.3,
                    "radius_m": 20.0,
                },
                "x_grid_m": {"min": -100.0 + dx, "max": 200.0 + dx, "n": 31},
                "y_grid_m": {"min": -100.0 + dy, "max": 200.0 + dy, "n": 31},
            },
            "perturbation": {"sigma_fraction": 0.05},
        },
        "gradient_noise": {"kind": "gaussian_decaying", "eps0": 0.05, "decay_q": 1.0},
    }]


GENERATORS = {
    "voyage-long": voyage_long,
    "commute-regret": commute_regret,
    "commute-huber": commute_huber,
    "voyage-sweep": voyage_sweep,
}
WORKLOADS = tuple(GENERATORS)
