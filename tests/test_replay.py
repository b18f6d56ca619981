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

# the same commute with the Huber utility: its G_T is the Monte-Carlo estimate
HUBER_COMMUTE_DOC = {**COMMUTE_DOC, "d2d": {**COMMUTE_DOC["d2d"], "utility": "huber", "mu": 0.05}}

# the squared commute in a box that cuts off the offline optimum, so the
# offline solve falls back to waypoint-space ascent with Dykstra restoration
BOXED_COMMUTE_DOC = {**COMMUTE_DOC, "feasible_box_m": {"lo": [-100, 0], "hi": [900, 700]}}

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
    ("commute-huber", "benchmark", "trace.csv"): (
        "77f30993cbb7be5fe981627a2d99e6ed3b3e483ce9e1787ea72b66f92d6cceb6"
    ),
    ("commute-huber", "benchmark", "regret_report.json"): (
        "a7c9944f264dca54aabfc3b5c4454fbf03c1ea202e299e773c80e85f48f841d2"
    ),
    ("commute-boxed", "benchmark", "trace.csv"): (
        "a31b909a695a0edf182cf09ad992bc888755e27a669713870fdc0f2b5c670af5"
    ),
    ("commute-boxed", "benchmark", "regret_report.json"): (
        "9bcaa1626f2ff952a8b918f4f371a975467a1478037d4d93af1f68a03f6f7b4f"
    ),
}


def _digests(tmp_path, name, doc, commands=("run", "benchmark")) -> dict:
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = {}
    for command in commands:
        outdir = tmp_path / name / command
        assert main([command, "--config", str(cfg), "--out", str(outdir)]) == 0
        for path in sorted(outdir.iterdir()):
            if path.name != "manifest.json":
                out[(name, command, path.name)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_noise_free_outputs_match_golden_digests(tmp_path, capsys):
    got = {
        **_digests(tmp_path, "voyage", VOYAGE_DOC),
        **_digests(tmp_path, "commute", COMMUTE_DOC),
        **_digests(tmp_path, "commute-huber", HUBER_COMMUTE_DOC, ("benchmark",)),
        **_digests(tmp_path, "commute-boxed", BOXED_COMMUTE_DOC, ("benchmark",)),
    }
    assert got == GOLDEN


# two noise-free sweeps, one per scenario kind; each row's summary line
# carries its own offline benchmark
SWEEPS = {"voyage": (VOYAGE_DOC, "0,10,25,40"), "commute": (COMMUTE_DOC, "0,2,5,9")}

SWEEP_GOLDEN = {
    ("voyage", "summary.csv"): "84c8b23ba0ded6d85bcf66b10a0ecd46ca0a939942cd94493d887716f7212772",
    ("voyage", "trace_delta_0.csv"): "31127865e57b22f7da45f1e0d7fe3e9dddbafeb8052cc9aee0a1f3359904ca7e",
    ("voyage", "trace_delta_10.csv"): "33c50d23c53a1afe54082088c739e16c7c171a829674621af1597607963ffa52",
    ("voyage", "trace_delta_25.csv"): "c9fcbd21917b56eb5f90682c1206a443db0b8c1cae83f6aeed3c8984e0e7f2a6",
    ("voyage", "trace_delta_40.csv"): "cc30c2255300a640c4822263790379119b4cd2b16bd65c6e38f2820e19df1789",
    ("commute", "summary.csv"): "27405cf907a4d85a4b8d1119c3f7fec320472e1ecb3c38b94e3127aa53a05454",
    ("commute", "trace_delta_0.csv"): "1e022ef24de42247f869a5c710eeea2262588a7ca2bfcc3d179f5d374c0470d8",
    ("commute", "trace_delta_2.csv"): "28700a97d66b9876d3e7ca67260894c86e44dba42ab7169241de400cce972e58",
    ("commute", "trace_delta_5.csv"): "326504c17c8ef9912115e400758780c2da6e23523ff09aa4de8da0f1df245ac6",
    ("commute", "trace_delta_9.csv"): "5797ced8448f5ef1aaf771eadd8234fc2925c6630ff049122527d897175b9caf",
}


def test_noise_free_sweeps_match_golden_digests(tmp_path, capsys):
    got = {}
    for name, (doc, values) in SWEEPS.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        outdir = tmp_path / name
        argv = ["sweep", "--config", str(cfg), "--param", "delta", "--values", values]
        assert main([*argv, "--out", str(outdir)]) == 0
        for path in sorted(outdir.iterdir()):
            if path.name != "manifest.json":
                got[(name, path.name)] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == SWEEP_GOLDEN


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
