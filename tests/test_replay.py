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
    # voyage, all four: re-taken when evaluate became slot_terms' per-slot share; utility cells, regret moved
    ("voyage", "run", "trace.csv"): "ec877a7ae28ee4f291689ea9b1571178819e06795ac8c208626f03480f9247be",
    ("voyage", "run", "summary.csv"): "443e5c6b39f1097659c3a930da52f08033d2e44c7ac9d482e1c988ec0af8b263",
    ("voyage", "benchmark", "trace.csv"): "ec877a7ae28ee4f291689ea9b1571178819e06795ac8c208626f03480f9247be",
    # re-taken when the gap gained the one-step dual bound: same 20 iterations
    # and regret; offline_gap 0.243265 became 0.242093
    ("voyage", "benchmark", "regret_report.json"): (
        "179ef465efbf1bc5a19f6614fd8c0ff7f8e715d273ee488afd171d9b188652b1"
    ),
    # commute trace: re-taken when evaluate became slot_terms' per-slot share; utility cells moved
    ("commute", "run", "trace.csv"): "6b2c3aa3d900609b1d0dd290846fffa0f214c0ee4c3727b32ef6b93070481f6e",
    # re-taken when squared rows gained the rigid-run bound: the solve stops
    # at 10 iterations, not 20; regret 631963.70 became 631764.92 and S_T
    # 37500.40 became 37497.32
    ("commute", "run", "summary.csv"): "1617858fe80ae0269c9c70c45b255184ac00af39dabf37b1e5cc53f4b6e46b65",
    # commute trace: re-taken when evaluate became slot_terms' per-slot share; utility cells moved
    ("commute", "benchmark", "trace.csv"): "6b2c3aa3d900609b1d0dd290846fffa0f214c0ee4c3727b32ef6b93070481f6e",
    # re-taken with the summary above, for the same earlier stop
    ("commute", "benchmark", "regret_report.json"): (
        "8220972268df061769a57c763ed0724288cf08a3a3662039c443fadcbe9328a3"
    ),
    ("commute-huber", "benchmark", "trace.csv"): (
        "77f30993cbb7be5fe981627a2d99e6ed3b3e483ce9e1787ea72b66f92d6cceb6"
    ),
    # re-taken when the gap gained the one-step dual bound: the solve stops
    # at 30 iterations, not 50; regret 210301.76 became 210221.66 and
    # offline_gap 197.14 became 116.94
    ("commute-huber", "benchmark", "regret_report.json"): (
        "d6a9c2fc34a5e5c6b2d4322ba72b96379305e5b191dcbdfac835e131729d71f7"
    ),
    # commute trace: re-taken when evaluate became slot_terms' per-slot share; utility cells moved
    ("commute-boxed", "benchmark", "trace.csv"): (
        "df7b34394e285afc4e3ea3a3fc5f63f838eb7560d0887c772e0d9dbee8f255a8"
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
    # voyage, all four: re-taken when evaluate became slot_terms' per-slot share; utility cells, regret moved
    ("voyage", "standard", "trace.csv"): (
        "7001df4dc292d1d1b835f880cdd93965a5512b1de9a99db79646e31f737f9787"
    ),
    ("voyage", "standard", "summary.csv"): (
        "696cbfd5a515977a6bf95baf8fd4d00c7e270de9698b034d2cd82c4d19be1336"
    ),
    ("voyage", "lookahead", "trace.csv"): (
        "7001df4dc292d1d1b835f880cdd93965a5512b1de9a99db79646e31f737f9787"
    ),
    ("voyage", "lookahead", "summary.csv"): (
        "696cbfd5a515977a6bf95baf8fd4d00c7e270de9698b034d2cd82c4d19be1336"
    ),
    # commute trace: re-taken when evaluate became slot_terms' per-slot share; utility cells moved
    ("commute", "standard", "trace.csv"): (
        "fd69c8ab557957d7c1b25fdfe24c9ba5b152e16df840ace13786d6a661aa3808"
    ),
    # re-taken when squared rows gained the rigid-run bound: the solve stops
    # at 10 iterations, not 20; regret 631945.53 became 631747.18, offline_gap
    # 388.70 became 456.84.  The lookahead run still stops at 20 on the
    # Frank-Wolfe gap, and keeps its bytes
    ("commute", "standard", "summary.csv"): (
        "e53a8ea96f66b6d25e7f6931ada9471658d1a4e4a665957cd67f9ac9b112330e"
    ),
    # commute trace: re-taken when evaluate became slot_terms' per-slot share; utility cells moved
    ("commute", "lookahead", "trace.csv"): (
        "05c9549b4b14bc3f36e3f2dff3de919e28466d46dda637867be02c502da0e5f1"
    ),
    ("commute", "lookahead", "summary.csv"): (
        "607d8314cf5ee1fe5c04f31d2c4b7638fb9891ff15fe840a44aa102c343e560a"
    ),
    # voyage: re-taken when evaluate became slot_terms' per-slot share; utility cells, regret moved
    ("voyage-timed", "lookahead", "trace.csv"): (
        "655e8b07d6c54cace35e741ba4c383a1309bbebfbae55da64558cf3241a45c45"
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
    # re-taken when evaluate became slot_terms' per-slot share; some rows' regret moved
    ("voyage", "summary.csv"): "c2a6738b83f2c87076fe3c617255e0da68ed7f692c002183aba94ff6323ffb31",
    # voyage: re-taken when evaluate became slot_terms' per-slot share; utility cells, regret moved
    ("voyage", "trace_delta_0.csv"): "31d7ce39b793f3c62bc97a9f9ea2a004ec396d7a19e5fc6a860b0e008aff1c8e",
    ("voyage", "trace_delta_10.csv"): "b3521201a273e3f02b1302f9b5f3168386bf2d11dd6862f37b647f21a14a82dc",
    ("voyage", "trace_delta_25.csv"): "d9f921b22d4bfe95458ab0f3c9e43b02b86775b8eacbcd55d4f9b9ebd86891af",
    ("voyage", "trace_delta_40.csv"): "b9bcc01be43932044fcbd0a98597415251d230a09662f82584fa9e67980c666a",
    # re-taken when squared rows gained the rigid-run bound: delta 5 stops at
    # 20 iterations, not 40, and delta 9 at 30, not 70 (regret 620225.86 and
    # 554117.37 became 620042.64 and 553967.89); deltas 0 and 2 still stop at
    # 10 on the Frank-Wolfe gap
    # re-taken when evaluate became slot_terms' per-slot share; some rows' regret moved
    ("commute", "summary.csv"): "381da523f753cd1f05464c8d145f2f10a9ad33a5f0c39dad60f4a035dc17ec7a",
    # commute traces: re-taken when evaluate became slot_terms' per-slot share; utility cells moved
    ("commute", "trace_delta_0.csv"): "ff85b890121dd77fd1977ae8de0ce350cdd8b1a4b53c0694db4814cb3f14f8a2",
    ("commute", "trace_delta_2.csv"): "203ec68ae51a3df5d455151aa7382d16e578f75ecf4adbdec673711c1fa5a5bb",
    ("commute", "trace_delta_5.csv"): "917fe1851a985b10cfc233739f589860f2682292de14ec23bab3b8e452f9366e",
    ("commute", "trace_delta_9.csv"): "0be86d615186973812116ba3d358b686f6e6351a6a0412ed7918e6ca5cafc825",
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
