"""Byte-level replay guarantees of the emitted traces, summaries and reports.

The golden digests pin noise-free runs, whose bytes depend only on the
field sampling, the step rule, the offline solver and the CSV/JSON writers;
any change to one of those that moves a single bit shows here.  The digests
were taken with numpy 2.4 on x86-64.
"""

import hashlib
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajsim.cli import main
from trajsim.engine import NoiseModel
from trajsim.errors import InfeasibleStepSize
from trajsim.field import FieldPerturbation, GyreSpec, synth_field
from trajsim.scenarios import PathSpec, ScenarioConfig, run_scenario
from trajsim.traces import emit_trace

# configs/voyage.json with gradient noise off, the forecast perturbation kept
# and a four-slice time grid that the episode runs past
VOYAGE_DOC = {
    "kind": "ocean",
    "seed": 3,
    "start_m": [15.0, 15.0],
    "goal_m": [60.0, 60.0],
    "delta_slots": 30,
    "v_max_mps": 1.0,
    "ocean": {
        "lambda_strategy": "direction_dependent",
        "beta": 0.4,
        "drag_coefficient": 1.0,
        "field": {
            "synthetic": {
                "kind": "single_gyre",
                "center_m": [40.0, 30.0],
                "strength_mps": 0.3,
                "radius_m": 20.0,
            },
            "x_grid_m": {"min": -100, "max": 200, "n": 31},
            "y_grid_m": {"min": -100, "max": 200, "n": 31},
            "t_grid_s": {"min": 0, "max": 60, "n": 4},
        },
        "perturbation": {"sigma_fraction": 0.05, "seed": 11},
    },
    "gradient_noise": {"kind": "none"},
}

# configs/commute.json with the peer's position noise off
COMMUTE_DOC = {
    "kind": "d2d",
    "seed": 42,
    "slot_duration_s": 37.268,
    "start_m": [0.0, 400.0],
    "goal_m": [400.0, 1200.0],
    "peer": {
        "from_m": [400.0, 0.0],
        "to_m": [800.0, 800.0],
        "speed_mps": 1.0,
        "noise_std_m": 0.0,
    },
    "delta_slots": 4,
    "v_max_mps": 1.0,
    "d2d": {
        "mu": 0.001,
        "utility": "squared",
        "alpha_p": 2.5,
        "bandwidth_hz": 10000000.0,
        "noise_power": 0.2,
    },
}

GOLDEN = {
    ("voyage", "run", "trace.csv"): "4df5d65c652fc0fc57ac80dee9ba7372021de6d09b240a57380c1bf2994dbc5c",
    ("voyage", "run", "summary.csv"): "5d46883bbce58189e6e166e51f4f88cffcfa558d0cd7b2188240dc4f60c10d85",
    ("voyage", "benchmark", "trace.csv"): "4df5d65c652fc0fc57ac80dee9ba7372021de6d09b240a57380c1bf2994dbc5c",
    ("voyage", "benchmark", "regret_report.json"): (
        "6e4c9b14d74271bd67928d2ab82750609d4d436e92cad0ccf01e44799b069a51"
    ),
    ("commute", "run", "trace.csv"): "e191860d31839af843bdded3c595de03ccaec68fead3c96982579abaf14121cd",
    ("commute", "run", "summary.csv"): "c7c69b6cbf7e557481a822c061f61f645d708c25435a8fcb936be456a9939e4e",
    ("commute", "benchmark", "trace.csv"): "e191860d31839af843bdded3c595de03ccaec68fead3c96982579abaf14121cd",
    ("commute", "benchmark", "regret_report.json"): (
        "05faa17eb895a920a5a7e9c77c1976bd4e1f135379cfa35c98155dd542bd11b8"
    ),
}


def _digests(tmp_path, name, doc) -> dict:
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = {}
    for command in ("run", "benchmark"):
        outdir = tmp_path / name / command
        assert main([command, "--config", str(cfg), "--out", str(outdir)]) == 0
        for path in sorted(outdir.iterdir()):
            if path.name != "manifest.json":
                out[(name, command, path.name)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_noise_free_outputs_match_golden_digests(tmp_path, capsys):
    got = {**_digests(tmp_path, "voyage", VOYAGE_DOC), **_digests(tmp_path, "commute", COMMUTE_DOC)}
    assert got == GOLDEN


def _small_config(kind, distance, delta, seed, eps0, decay_q) -> ScenarioConfig:
    """A fresh config, field included, so no run reuses another's field cells."""
    noise = NoiseModel("gaussian_decaying", eps0, decay_q, seed + 1)
    goal = PathSpec((distance, 0.5 * distance), (distance, 0.5 * distance))
    if kind == "d2d":
        peer = PathSpec((0.0, 3.0), (distance, 3.0), speed_mps=0.4)
        return ScenarioConfig(
            kind="d2d", goal=goal, peer=peer, peer_noise_std_m=0.5, delta=delta,
            gradient_noise=noise, seed=seed,
        )
    grid = tuple(float(c) for c in range(-20, 61, 10))
    fld = synth_field(GyreSpec((10.0, 5.0), 0.3, 8.0), grid, grid, (0.0, 10.0, 20.0))
    return ScenarioConfig(
        kind="ocean", goal=goal, delta=delta, ocean_field=fld,
        perturbation=FieldPerturbation(0.05), gradient_noise=noise, seed=seed,
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["d2d", "ocean"]),
    distance=st.floats(1.0, 25.0),
    delta=st.integers(0, 32),
    seed=st.integers(0, 2**31 - 1),
    eps0=st.floats(0.0, 2.0),
    decay_q=st.floats(0.0, 1.5),
)
def test_replays_write_identical_traces(tmp_path, kind, distance, delta, seed, eps0, decay_q):
    outcomes = []
    for name in ("a.csv", "b.csv"):
        cfg = _small_config(kind, distance, delta, seed, eps0, decay_q)
        assert cfg.horizon <= 64
        try:
            report = run_scenario(cfg, benchmark=False)
        except InfeasibleStepSize as exc:
            # an infeasible slot must replay too, at the same slot
            outcomes.append(str(exc))
            continue
        emit_trace(report, tmp_path / name)
        outcomes.append((tmp_path / name).read_bytes())
    assert outcomes[0] == outcomes[1]
