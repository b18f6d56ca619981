"""Byte-level replay guarantees of the emitted traces, summaries and reports.

The golden digests pin noise-free runs, whose bytes depend only on the
field sampling, the step rule, the offline solver and the CSV/JSON writers;
any change to one of those that moves a single bit shows here.  A second
set pins the shipped, noisy configs in both modes, so the noise streams and
the lookahead path are pinned too.  Every trace is also written by the csv
module's ``repr`` reference, whose digests (``REPR_GOLDEN``) are the
traces' bytes from before their floats were written ``%.17g``; it must
parse back to the same bits as the library's trace.  The digests were taken
with numpy 2.4.6 and scipy-openblas 0.3.31.188.0, on Python 3.11.7 and
x86-64.
"""

import builtins
import hashlib
import json
import math
import sys
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from trace_reference import cell_bits, emit_trace_csv

from trajsim.cli import main
from trajsim.config import parse_config_doc
from trajsim.engine import NoiseModel
from trajsim.errors import InfeasibleStepSize
from trajsim.field import FieldPerturbation, GyreSpec, synth_field
from trajsim.objectives import RATE_MIN_DISTANCE_M
from trajsim.scenarios import PathSpec, ScenarioConfig, run_scenario
from trajsim.traces import emit_trace, read_trace

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

# a noise-free commute whose agent runs straight through its static peer:
# two waypoints come within the link rate's 1 m distance clamp of it and two
# more within 2 m, so the summary's avg_rate pins the clamp's bits
CLAMP_COMMUTE_DOC = {
    "kind": "d2d",
    "seed": 7,
    "start_m": [0.0, 0.0],
    "goal_m": [30.0, 0.0],
    "peer": {"from_m": [12.0, 0.0], "to_m": [12.0, 0.0], "speed_mps": 0.0, "noise_std_m": 0.0},
    "delta_slots": 6,
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
    # voyage, all four: re-taken when evaluate became slot_terms' per-slot share; utility cells, regret moved
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("voyage", "run", "trace.csv"): "d1c2f50965e9227cb904c820fdf0f80636eeddc9cd99dbd00410fea0489f8322",
    ("voyage", "run", "summary.csv"): "443e5c6b39f1097659c3a930da52f08033d2e44c7ac9d482e1c988ec0af8b263",
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("voyage", "benchmark", "trace.csv"): "d1c2f50965e9227cb904c820fdf0f80636eeddc9cd99dbd00410fea0489f8322",
    # re-taken when the gap gained the one-step dual bound: same 20 iterations
    # and regret; offline_gap 0.243265 became 0.242093
    # re-taken when the report gained solver_newton_solves (0 here): no other byte moved
    ("voyage", "benchmark", "regret_report.json"): (
        "4603a8604e1fc1d3614081c032684285b1ef240999ce95737d247d0ba56d3ffc"
    ),
    # commute trace: re-taken when evaluate became slot_terms' per-slot share; utility cells moved
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("commute", "run", "trace.csv"): "b08406416d926c1757313005515af41a8e1e327a40ffb25d298dfbe5a9d60ca9",
    # re-taken when squared rows gained the rigid-run bound: the solve stops
    # at 10 iterations, not 20; regret 631963.70 became 631764.92 and S_T
    # 37500.40 became 37497.32
    ("commute", "run", "summary.csv"): "1617858fe80ae0269c9c70c45b255184ac00af39dabf37b1e5cc53f4b6e46b65",
    # commute trace: re-taken when evaluate became slot_terms' per-slot share; utility cells moved
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("commute", "benchmark", "trace.csv"): "b08406416d926c1757313005515af41a8e1e327a40ffb25d298dfbe5a9d60ca9",
    # re-taken with the summary above, for the same earlier stop
    # re-taken when the report gained solver_newton_solves (0 here): no other byte moved
    ("commute", "benchmark", "regret_report.json"): (
        "c8ecf8fc8a4e0773e65c03bb951f26276709d6cdf1ec7c1e3f50eb1f3d1ab183"
    ),
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("commute-huber", "benchmark", "trace.csv"): (
        "3385c7ff171b7a2b7143e6a00bdaf339d94c60299f599877a0fd004dd0d74b35"
    ),
    # re-taken when the gap gained the one-step dual bound: the solve stops
    # at 30 iterations, not 50; regret 210301.76 became 210221.66 and
    # offline_gap 197.14 became 116.94
    # re-taken when the report gained solver_newton_solves (0 here): no other byte moved
    ("commute-huber", "benchmark", "regret_report.json"): (
        "f9db368519ec9488f050137d7f741596a737f17789b68ab51b9838931290e25f"
    ),
    # commute trace: re-taken when evaluate became slot_terms' per-slot share; utility cells moved
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("commute-boxed", "benchmark", "trace.csv"): (
        "a91942922b5c8f9a9380b8974f3a90fc41af3dea910c8a9e6454e80d76b368c1"
    ),
    # re-taken when the box solve replaced the Dykstra restoration: the
    # offline total -1705040.798 became -1705075.642 with a gap of 61.8
    # re-taken when the report gained solver_newton_solves (0 here): no other byte moved
    ("commute-boxed", "benchmark", "regret_report.json"): (
        "27774f2333d8a4bde0b6f1c89a5298407ba5499e3c461fe1205a337984bf71a9"
    ),
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("commute-clamp", "run", "trace.csv"): (
        "00d7aaf3c6844f198e7f5ccfddeddfa370ccd8096c2c0bd4b44c4c98f2bc710e"
    ),
    ("commute-clamp", "run", "summary.csv"): (
        "95c2122a1ebe7a987dba71e2baeafdd320af2f044a6d8bed8240837d6d3e6cc5"
    ),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _float_bits(path) -> list:
    return [[cell_bits(v) for v in row.values()] for row in read_trace(path)]


def _command(argv, outdir, key) -> tuple[dict, dict]:
    """Run one command into ``outdir``: the digests of its files and of its ``repr`` traces.

    Both are keyed ``(*key, name)``, and the manifest is left out.  Each trace
    the command writes is written a second time by the csv module's ``repr``
    reference, beside ``outdir``; the two must parse back to the same bits.
    """
    ref_dir = outdir.with_name(outdir.name + ".repr")

    def emit_both(report, path):
        emit_trace(report, path)
        ref_dir.mkdir(exist_ok=True)
        emit_trace_csv(report, ref_dir / path.name)

    with mock.patch("trajsim.cli.emit_trace", emit_both):
        assert main([*argv, "--out", str(outdir)]) == 0
    got = {(*key, p.name): _sha(p) for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}
    refs = sorted(ref_dir.iterdir())
    for ref in refs:
        assert _float_bits(outdir / ref.name) == _float_bits(ref), ref.name
    return got, {(*key, ref.name): _sha(ref) for ref in refs}


def _repr_golden(golden) -> dict:
    """The ``repr`` reference's digests of the traces among ``golden``'s files."""
    return {k: REPR_GOLDEN[k] for k in golden if k[-1].startswith("trace")}


def _digests(tmp_path, name, doc, commands=("run", "benchmark")) -> tuple[dict, dict]:
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    got, repr_got = {}, {}
    for command in commands:
        argv = [command, "--config", str(cfg)]
        files, traces = _command(argv, tmp_path / name / command, (name, command))
        got.update(files)
        repr_got.update(traces)
    return got, repr_got


def test_noise_free_outputs_match_golden_digests(tmp_path, capsys):
    got, repr_got = {}, {}
    for args in [
        ("voyage", VOYAGE_DOC),
        ("commute", COMMUTE_DOC),
        ("commute-huber", HUBER_COMMUTE_DOC, ("benchmark",)),
        ("commute-boxed", BOXED_COMMUTE_DOC, ("benchmark",)),
        ("commute-clamp", CLAMP_COMMUTE_DOC, ("run",)),
    ]:
        files, traces = _digests(tmp_path, *args)
        got.update(files)
        repr_got.update(traces)
    assert got == GOLDEN
    assert repr_got == _repr_golden(GOLDEN)


def test_the_clamp_commute_comes_within_the_clamp_of_its_peer():
    report = run_scenario(parse_config_doc(CLAMP_COMMUTE_DOC), benchmark=False)
    gaps = sorted(math.dist(x, (12.0, 0.0)) for x in report.trajectory)
    assert gaps[1] < RATE_MIN_DISTANCE_M <= gaps[2] <= gaps[3] < 2.0


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
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("voyage", "standard", "trace.csv"): (
        "f988fae45c11fe29ea92796b184937b8129aaa52b34d74324d79f5dc3fe9bdd0"
    ),
    ("voyage", "standard", "summary.csv"): (
        "696cbfd5a515977a6bf95baf8fd4d00c7e270de9698b034d2cd82c4d19be1336"
    ),
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("voyage", "lookahead", "trace.csv"): (
        "f988fae45c11fe29ea92796b184937b8129aaa52b34d74324d79f5dc3fe9bdd0"
    ),
    ("voyage", "lookahead", "summary.csv"): (
        "696cbfd5a515977a6bf95baf8fd4d00c7e270de9698b034d2cd82c4d19be1336"
    ),
    # commute trace: re-taken when evaluate became slot_terms' per-slot share; utility cells moved
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("commute", "standard", "trace.csv"): (
        "7e402c55c7526c7b2fcea6056952a3b3bb2e006ac884f70cab289fa3597f14e3"
    ),
    # re-taken when squared rows gained the rigid-run bound: the solve stops
    # at 10 iterations, not 20; regret 631945.53 became 631747.18, offline_gap
    # 388.70 became 456.84.  The lookahead run still stops at 20 on the
    # Frank-Wolfe gap, and keeps its bytes
    ("commute", "standard", "summary.csv"): (
        "e53a8ea96f66b6d25e7f6931ada9471658d1a4e4a665957cd67f9ac9b112330e"
    ),
    # commute trace: re-taken when evaluate became slot_terms' per-slot share; utility cells moved
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("commute", "lookahead", "trace.csv"): (
        "eef91e791dc1142ddcc85166ed1d9d47a7805bfcca209d4c479f0863118426af"
    ),
    ("commute", "lookahead", "summary.csv"): (
        "607d8314cf5ee1fe5c04f31d2c4b7638fb9891ff15fe840a44aa102c343e560a"
    ),
    # voyage: re-taken when evaluate became slot_terms' per-slot share; utility cells, regret moved
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("voyage-timed", "lookahead", "trace.csv"): (
        "b2e1b280a2492403f6cdb0e29d3c45c38e79f00a0acc4a0272478694dd3b3acb"
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
    got, repr_got = {}, {}
    for name, cfg, mode in runs:
        argv = ["run", "--config", str(cfg), "--mode", mode]
        files, traces = _command(argv, tmp_path / name / mode, (name, mode))
        got.update(files)
        repr_got.update(traces)
    assert got == NOISY_GOLDEN
    assert repr_got == _repr_golden(NOISY_GOLDEN)


# two noise-free sweeps, one per scenario kind; each row's summary line
# carries its own offline benchmark
SWEEPS = {"voyage": (VOYAGE_DOC, "0,10,25,40"), "commute": (COMMUTE_DOC, "0,2,5,9")}

SWEEP_GOLDEN = {
    # re-taken when evaluate became slot_terms' per-slot share; some rows' regret moved
    ("voyage", "summary.csv"): "c2a6738b83f2c87076fe3c617255e0da68ed7f692c002183aba94ff6323ffb31",
    # voyage: re-taken when evaluate became slot_terms' per-slot share; utility cells, regret moved
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("voyage", "trace_delta_0.csv"): "c9ed3feb6e3fb821a386ebd9056bc7509266a30cb7ab1b22b7b65db7160d4db3",
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("voyage", "trace_delta_10.csv"): "81927f2b8588083e0cef80898229b4cb9ad7cd8126cb8300340f9fc6c4e84bf8",
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("voyage", "trace_delta_25.csv"): "ba922c037f3655ac442636fc28c41c30cc46da942df4d3d7182e4dcda67d785f",
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("voyage", "trace_delta_40.csv"): "6d066ad11f8271172b8866a32bc7b78d0c8a571e1aa04cdd62f0a68d9ed01713",
    # re-taken when squared rows gained the rigid-run bound: delta 5 stops at
    # 20 iterations, not 40, and delta 9 at 30, not 70 (regret 620225.86 and
    # 554117.37 became 620042.64 and 553967.89); deltas 0 and 2 still stop at
    # 10 on the Frank-Wolfe gap
    # re-taken when evaluate became slot_terms' per-slot share; some rows' regret moved
    ("commute", "summary.csv"): "381da523f753cd1f05464c8d145f2f10a9ad33a5f0c39dad60f4a035dc17ec7a",
    # commute traces: re-taken when evaluate became slot_terms' per-slot share; utility cells moved
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("commute", "trace_delta_0.csv"): "8c54d4ccebb03e080c3fd670032f69231befa4552fe96a35f48fc01b857968cc",
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("commute", "trace_delta_2.csv"): "fbfca9db3fc3434452155a3ecba50df36ba65d726826e2476c6780ea2f1086f1",
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("commute", "trace_delta_5.csv"): "00f962d3b8a5951ccd8379c641ccfb2261d9a8b63770c5ad8488cf0e4de550c1",
    # re-taken when float cells became %.17g: same bits as REPR_GOLDEN's
    ("commute", "trace_delta_9.csv"): "5c9db64d6644fb2922e6a7411f4c040dcaafdb441ef01f15bfdb00e926c60852",
}


def test_noise_free_sweeps_match_golden_digests(tmp_path, capsys):
    got, repr_got = {}, {}
    for name, (doc, values) in SWEEPS.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["sweep", "--config", str(cfg), "--param", "delta", "--values", values]
        files, traces = _command(argv, tmp_path / name, (name,))
        got.update(files)
        repr_got.update(traces)
    assert got == SWEEP_GOLDEN
    assert repr_got == _repr_golden(SWEEP_GOLDEN)


# The traces as the csv module writes them, every float as ``repr``: the
# digests GOLDEN, NOISY_GOLDEN and SWEEP_GOLDEN held before the float cells
# became ``%.17g``, unchanged.  tests/trace_reference.py's ``emit_trace_csv``
# must still write them, and each of its traces must parse back to the bits
# of the library's.
REPR_GOLDEN = {
    ("voyage", "run", "trace.csv"): (
        "ec877a7ae28ee4f291689ea9b1571178819e06795ac8c208626f03480f9247be"
    ),
    ("voyage", "benchmark", "trace.csv"): (
        "ec877a7ae28ee4f291689ea9b1571178819e06795ac8c208626f03480f9247be"
    ),
    ("commute", "run", "trace.csv"): (
        "6b2c3aa3d900609b1d0dd290846fffa0f214c0ee4c3727b32ef6b93070481f6e"
    ),
    ("commute", "benchmark", "trace.csv"): (
        "6b2c3aa3d900609b1d0dd290846fffa0f214c0ee4c3727b32ef6b93070481f6e"
    ),
    ("commute-huber", "benchmark", "trace.csv"): (
        "77f30993cbb7be5fe981627a2d99e6ed3b3e483ce9e1787ea72b66f92d6cceb6"
    ),
    ("commute-boxed", "benchmark", "trace.csv"): (
        "df7b34394e285afc4e3ea3a3fc5f63f838eb7560d0887c772e0d9dbee8f255a8"
    ),
    ("commute-clamp", "run", "trace.csv"): (
        "7cb946ee976e86e52ed89647aa8c6ef6d779cf796ceacf0a9baa95240b273e8d"
    ),
    ("voyage", "standard", "trace.csv"): (
        "7001df4dc292d1d1b835f880cdd93965a5512b1de9a99db79646e31f737f9787"
    ),
    ("voyage", "lookahead", "trace.csv"): (
        "7001df4dc292d1d1b835f880cdd93965a5512b1de9a99db79646e31f737f9787"
    ),
    ("commute", "standard", "trace.csv"): (
        "fd69c8ab557957d7c1b25fdfe24c9ba5b152e16df840ace13786d6a661aa3808"
    ),
    ("commute", "lookahead", "trace.csv"): (
        "05c9549b4b14bc3f36e3f2dff3de919e28466d46dda637867be02c502da0e5f1"
    ),
    ("voyage-timed", "lookahead", "trace.csv"): (
        "655e8b07d6c54cace35e741ba4c383a1309bbebfbae55da64558cf3241a45c45"
    ),
    ("voyage", "trace_delta_0.csv"): (
        "31d7ce39b793f3c62bc97a9f9ea2a004ec396d7a19e5fc6a860b0e008aff1c8e"
    ),
    ("voyage", "trace_delta_10.csv"): (
        "b3521201a273e3f02b1302f9b5f3168386bf2d11dd6862f37b647f21a14a82dc"
    ),
    ("voyage", "trace_delta_25.csv"): (
        "d9f921b22d4bfe95458ab0f3c9e43b02b86775b8eacbcd55d4f9b9ebd86891af"
    ),
    ("voyage", "trace_delta_40.csv"): (
        "b9bcc01be43932044fcbd0a98597415251d230a09662f82584fa9e67980c666a"
    ),
    ("commute", "trace_delta_0.csv"): (
        "ff85b890121dd77fd1977ae8de0ce350cdd8b1a4b53c0694db4814cb3f14f8a2"
    ),
    ("commute", "trace_delta_2.csv"): (
        "203ec68ae51a3df5d455151aa7382d16e578f75ecf4adbdec673711c1fa5a5bb"
    ),
    ("commute", "trace_delta_5.csv"): (
        "917fe1851a985b10cfc233739f589860f2682292de14ec23bab3b8e452f9366e"
    ),
    ("commute", "trace_delta_9.csv"): (
        "0be86d615186973812116ba3d358b686f6e6351a6a0412ed7918e6ca5cafc825"
    ),
}


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
