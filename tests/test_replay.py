"""Byte-level replay guarantees of the emitted traces, summaries and reports.

The golden digests pin noise-free runs, whose bytes depend only on the
field sampling, the step rule, the offline solver and the CSV/JSON writers;
any change to one of those that moves a single bit shows here.  A second
set pins the shipped, noisy configs in both modes, so the noise streams and
the lookahead path are pinned too.  The digests were taken with numpy 2.4
on x86-64.
"""

import builtins
import hashlib
import json
import math
import sys
from pathlib import Path

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

# the same commute with the Huber utility: its G_T is the closed form, exact
# since every pair of leads has its midpoint in the box
HUBER_COMMUTE_DOC = {**COMMUTE_DOC, "d2d": {**COMMUTE_DOC["d2d"], "utility": "huber", "mu": 0.05}}

# the squared commute in a box that cuts off the offline optimum, so the
# offline solve hands the row to the certified waypoint-space box solve
BOXED_COMMUTE_DOC = {**COMMUTE_DOC, "feasible_box_m": {"lo": [-100, 0], "hi": [900, 700]}}

GOLDEN = {
    ("voyage", "run", "trace.csv"): "4df5d65c652fc0fc57ac80dee9ba7372021de6d09b240a57380c1bf2994dbc5c",
    ("voyage", "run", "summary.csv"): "897972fb83d035fb4ef80801240559522733252c38413f3a338970a723e6d197",
    ("voyage", "benchmark", "trace.csv"): "4df5d65c652fc0fc57ac80dee9ba7372021de6d09b240a57380c1bf2994dbc5c",
    ("voyage", "benchmark", "regret_report.json"): (
        "fde24c18d7f8c34051ba6dc523b495b3aaa9cf4ee3295d3ca8e1a4f2bea11396"
    ),
    ("commute", "run", "trace.csv"): "e191860d31839af843bdded3c595de03ccaec68fead3c96982579abaf14121cd",
    ("commute", "run", "summary.csv"): "990717bbc065ffc3e0f748c0c178846602955b576498c1f001d2a2aa06ea0687",
    ("commute", "benchmark", "trace.csv"): "e191860d31839af843bdded3c595de03ccaec68fead3c96982579abaf14121cd",
    ("commute", "benchmark", "regret_report.json"): (
        "6defd8b3872656b0d6cef4a1a0018b755f245134a1de2948bf4a576be324fa31"
    ),
    ("commute-huber", "benchmark", "trace.csv"): (
        "77f30993cbb7be5fe981627a2d99e6ed3b3e483ce9e1787ea72b66f92d6cceb6"
    ),
    ("commute-huber", "benchmark", "regret_report.json"): (
        "0fc84f7ee8143c47bb1fed7440e559da73405ce823facadf050370bfed2b3c98"
    ),
    ("commute-boxed", "benchmark", "trace.csv"): (
        "a31b909a695a0edf182cf09ad992bc888755e27a669713870fdc0f2b5c670af5"
    ),
    # re-taken when the box solve replaced the Dykstra restoration: the
    # offline total -1705040.798 became -1705075.642 with a gap of 61.8
    ("commute-boxed", "benchmark", "regret_report.json"): (
        "9173fb914cbd99089c9a3e8bc47880812d9257d10191e1ba3e6d8fb096be1fa9"
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


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# configs/voyage.json with the four-slice time grid of VOYAGE_DOC: the shipped
# field has one slice and a static goal, so its lookahead run equals the
# standard one, while here the current the lookahead step reads is a slot ahead
VOYAGE_TIMED_DOC = json.loads((CONFIGS / "voyage.json").read_text(encoding="utf-8"))
VOYAGE_TIMED_DOC["ocean"]["field"]["t_grid_s"] = VOYAGE_DOC["ocean"]["field"]["t_grid_s"]

# the shipped configs as they are: gradient noise, the forecast perturbation
# and the peer's position noise all on
NOISY_GOLDEN = {
    ("voyage", "standard", "trace.csv"): (
        "f698260fec00f57c67ebdf620697aa2519628d1a06a0d7238aaca8928d5a7240"
    ),
    ("voyage", "standard", "summary.csv"): (
        "496245b372a9507322de1e533430d713eeae7030cd49cc555c04310a2ef64b78"
    ),
    ("voyage", "lookahead", "trace.csv"): (
        "f698260fec00f57c67ebdf620697aa2519628d1a06a0d7238aaca8928d5a7240"
    ),
    ("voyage", "lookahead", "summary.csv"): (
        "496245b372a9507322de1e533430d713eeae7030cd49cc555c04310a2ef64b78"
    ),
    ("commute", "standard", "trace.csv"): (
        "2b2fbf43fd12699ea0c2c5d9718fd268ee0edb7f148bd743f8fbdccd1e1ddaa5"
    ),
    ("commute", "standard", "summary.csv"): (
        "aa7cd4d4e8203644684da6beca250fc32bebc0c617b2383b244eb97f296c99bd"
    ),
    ("commute", "lookahead", "trace.csv"): (
        "b4b78f582f96da5eca786aa6589edd1f7cb1d593ca4e21123ae01343088ec12b"
    ),
    ("commute", "lookahead", "summary.csv"): (
        "607d8314cf5ee1fe5c04f31d2c4b7638fb9891ff15fe840a44aa102c343e560a"
    ),
    ("voyage-timed", "lookahead", "trace.csv"): (
        "e559d2d34e6eb005927a8a58e4e792313e8007f23dd3340f685792195a13298c"
    ),
    ("voyage-timed", "lookahead", "summary.csv"): (
        "1d216d1924bf96e757273fe754b7cb90906adadd7cf60bc254726c893c83d8b1"
    ),
}


def test_noisy_outputs_match_golden_digests(tmp_path, capsys):
    timed = tmp_path / "voyage-timed.json"
    timed.write_text(json.dumps(VOYAGE_TIMED_DOC), encoding="utf-8")
    runs = [
        ("voyage", CONFIGS / "voyage.json", "standard"),
        ("voyage", CONFIGS / "voyage.json", "lookahead"),
        ("commute", CONFIGS / "commute.json", "standard"),
        ("commute", CONFIGS / "commute.json", "lookahead"),
        ("voyage-timed", timed, "lookahead"),
    ]
    got = {}
    for name, cfg, mode in runs:
        outdir = tmp_path / name / mode
        assert main(["run", "--config", str(cfg), "--out", str(outdir), "--mode", mode]) == 0
        for path in sorted(outdir.iterdir()):
            if path.name != "manifest.json":
                got[(name, mode, path.name)] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == NOISY_GOLDEN


# two noise-free sweeps, one per scenario kind; each row's summary line
# carries its own offline benchmark
SWEEPS = {"voyage": (VOYAGE_DOC, "0,10,25,40"), "commute": (COMMUTE_DOC, "0,2,5,9")}

SWEEP_GOLDEN = {
    ("voyage", "summary.csv"): "e429b19932e39d4befd047302a7875561b64c93fbff8fe1ba0cd3cf1d8d4c46d",
    ("voyage", "trace_delta_0.csv"): "31127865e57b22f7da45f1e0d7fe3e9dddbafeb8052cc9aee0a1f3359904ca7e",
    ("voyage", "trace_delta_10.csv"): "33c50d23c53a1afe54082088c739e16c7c171a829674621af1597607963ffa52",
    ("voyage", "trace_delta_25.csv"): "c9fcbd21917b56eb5f90682c1206a443db0b8c1cae83f6aeed3c8984e0e7f2a6",
    ("voyage", "trace_delta_40.csv"): "cc30c2255300a640c4822263790379119b4cd2b16bd65c6e38f2820e19df1789",
    ("commute", "summary.csv"): "94f376bf512faf256260ce4ad5099c01eca3625550a4edd6d814d75dfec509ed",
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


def _compensated_sum(values, start=0):
    """The builtin ``sum`` as Python 3.12 computes it: Neumaier-compensated over floats."""
    items = list(values)
    if not items or not all(type(v) is float for v in items):
        return builtins.sum(items, start)
    total, c = start + items[0], 0.0
    for x in items[1:]:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_noise_free_digests_hold_under_a_compensated_sum(tmp_path, capsys, monkeypatch):
    # Python 3.12 made the builtin sum of floats compensated; the outputs must
    # not depend on which sum the interpreter has
    assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0 != sum([1e16, 1.0, -1e16])
    for name, module in list(sys.modules.items()):
        if name == "trajsim" or name.startswith("trajsim."):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    for sub in ("runs", "sweeps"):
        (tmp_path / sub).mkdir()
    test_noise_free_outputs_match_golden_digests(tmp_path / "runs", capsys)
    test_noise_free_sweeps_match_golden_digests(tmp_path / "sweeps", capsys)


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
