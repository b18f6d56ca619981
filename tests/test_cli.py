import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trajsim
from trajsim.cli import main
from trajsim.traces import SUMMARY_HEADER, read_trace

D2D_DOC = {
    "kind": "d2d",
    "start_m": [0.0, 0.0],
    "goal_m": [10.0, 0.0],
    "peer": {"from_m": [0.0, 2.0], "to_m": [10.0, 2.0], "speed_mps": 1.0, "noise_std_m": 0.5},
    "v_max_mps": 1.0,
    "delta_slots": 2,
    "seed": 3,
    "gradient_noise": {"kind": "gaussian_decaying", "eps0": 0.1, "decay_q": 1.0, "seed": 11},
}

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

OCEAN_DOC = {
    "kind": "ocean",
    "start_m": [5.0, 5.0],
    "goal_m": [30.0, 30.0],
    "v_max_mps": 1.0,
    "delta_slots": 4,
    "ocean": {
        "lambda_strategy": "direction_dependent",
        "beta": 0.4,
        "field": {
            "synthetic": {"kind": "uniform", "u_mps": 0.15, "v_mps": 0.0},
            "x_grid_m": {"min": -50, "max": 150, "n": 11},
            "y_grid_m": {"min": -50, "max": 150, "n": 11},
        },
    },
}


def write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def set_key(doc, path, value):
    """Set the dotted ``path`` of a nested config document to ``value``."""
    *parents, key = path.split(".")
    for name in parents:
        doc = doc[name]
    doc[key] = value


def run_python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's trajsim."""
    src = str(Path(trajsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestRunCommand:
    def test_outputs_and_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path, D2D_DOC)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        assert (out / "summary.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert "regret" in capsys.readouterr().out

    def test_seed_flag_reproducibility(self, tmp_path):
        cfg = write(tmp_path, D2D_DOC)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["run", "--config", cfg, "--seed", "9", "--out", str(a)])
        main(["run", "--config", cfg, "--seed", "9", "--out", str(b)])
        main(["run", "--config", cfg, "--seed", "10", "--out", str(c)])
        ta, tb, tc = (p / "trace.csv" for p in (a, b, c))
        assert ta.read_bytes() == tb.read_bytes()
        assert ta.read_bytes() != tc.read_bytes()

    def test_env_seed_default(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, D2D_DOC)
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("TRAJSIM_SEED", "21")
        main(["run", "--config", cfg, "--out", str(a)])
        monkeypatch.delenv("TRAJSIM_SEED")
        main(["run", "--config", cfg, "--seed", "21", "--out", str(b)])
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_lookahead_mode(self, tmp_path):
        cfg = write(tmp_path, D2D_DOC)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--mode", "lookahead", "--out", str(out)]) == 0

    def test_config_error_exit_code(self, tmp_path):
        cfg = write(tmp_path, dict(D2D_DOC, velmax=1.0))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_box_without_the_start_is_a_config_error(self, tmp_path, capsys):
        doc = dict(D2D_DOC, feasible_box_m={"lo": [1.0, -5.0], "hi": [20.0, 5.0]})
        cfg = write(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: feasible_box_m: does not contain start_m" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "path", ["v_max_mps", "slot_duration_s", "ocean.beta", "peer.speed_mps", "d2d.margin"]
    )
    def test_non_finite_scalar_is_config_error(self, tmp_path, capsys, path, value):
        base = OCEAN_DOC if path in ("slot_duration_s", "ocean.beta") else dict(D2D_DOC, d2d={})
        doc = json.loads(json.dumps(base))
        set_key(doc, path, value)
        cfg = write(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {path}: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("margin", [0.5, 0.0, -1.0])
    def test_margin_below_one_is_config_error(self, tmp_path, capsys, margin):
        # below 1 the learning rate undercuts its lower bound; this was exit 3 at slot 1
        cfg = write(tmp_path, dict(D2D_DOC, d2d={"margin": margin}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: d2d.margin: must be >= 1, got {margin}" in capsys.readouterr().err

    def test_margin_of_one_is_accepted(self, tmp_path):
        cfg = write(tmp_path, dict(D2D_DOC, d2d={"margin": 1.0}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, 2.7, "seven"], ids=["nan", "inf", "2.7", "str"]
    )
    @pytest.mark.parametrize(
        "path",
        [
            "seed",
            "gradient_noise.seed",
            "ocean.perturbation.seed",
            "ocean.field.x_grid_m.n",
            "adversary.T",
        ],
    )
    def test_bad_integer_key_is_config_error(self, tmp_path, capsys, path, value):
        if path == "adversary.T":
            doc = {"kind": "adversary", "adversary": {"W": 1.0}}
        elif path.startswith("ocean."):
            doc = json.loads(json.dumps(OCEAN_DOC))
            doc["ocean"]["perturbation"] = {"sigma_fraction": 0.05}
        else:
            doc = json.loads(json.dumps(D2D_DOC))
        set_key(doc, path, value)
        cfg = write(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {path}: expected " in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("path", "value"),
        [
            ("seed", True),
            ("seed", "7"),
            ("delta_slots", True),
            ("delta_slots", False),
            ("gradient_noise.eps0", True),
            ("gradient_noise.seed", "11"),
            ("v_max_mps", "2.5"),
            pytest.param("v_max_mps", 10**400, id="v_max_mps-10**400"),
            ("peer.speed_mps", True),
            ("start_m", [True, 0.0]),
            pytest.param("start_m", [10**400, 0.0], id="start_m-10**400"),
        ],
    )
    def test_bool_string_or_huge_number_is_config_error(self, tmp_path, capsys, path, value):
        doc = json.loads(json.dumps(D2D_DOC))
        set_key(doc, path, value)
        cfg = write(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, ["mu"]], ids=["number", "list"])
    @pytest.mark.parametrize(
        "path",
        [
            "gradient_noise",
            "feasible_box_m",
            "d2d",
            "ocean",
            "ocean.field",
            "ocean.perturbation",
            "adversary",
        ],
    )
    def test_section_that_is_not_an_object_is_config_error(self, tmp_path, capsys, path, value):
        if path == "adversary":
            doc = {"kind": "adversary"}
        else:
            doc = json.loads(json.dumps(OCEAN_DOC if path.startswith("ocean") else D2D_DOC))
        set_key(doc, path, value)
        cfg = write(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {path}: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("path", "value"),
        [
            ("ocean.field.path", "missing.csv"),
            ("ocean.field.x_grid_m", []),
            ("ocean.field.x_grid_m", [0.0, 50.0, 20.0]),
            ("ocean.field.y_grid_m", [-50.0, -50.0, 150.0]),
            ("ocean.field.synthetic.radius_m", 0),
            ("d2d.bandwidth_hz", 0.0),
            ("d2d.noise_power", -0.2),
            ("gradient_noise.decay_q", -0.5),
        ],
    )
    def test_value_the_model_rejects_is_config_error(self, tmp_path, capsys, path, value):
        if path.startswith("ocean"):
            doc = json.loads(json.dumps(OCEAN_DOC))
            field = doc["ocean"]["field"]
            if path == "ocean.field.path":
                field.clear()
            if path.endswith("radius_m"):
                gyre = {"kind": "single_gyre", "center_m": [0, 0], "strength_mps": 0.3}
                field["synthetic"] = gyre
        else:
            doc = json.loads(json.dumps(dict(D2D_DOC, d2d={})))
        set_key(doc, path, value)
        cfg = write(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("strength", [1e300, 1e308])
    def test_overflowing_field_is_config_error(self, tmp_path, capsys, strength):
        # both exited 1 with a traceback from synth_field or perturb_field
        doc = json.loads((CONFIGS / "voyage.json").read_text(encoding="utf-8"))
        doc["ocean"]["field"]["synthetic"]["strength_mps"] = strength
        cfg = write(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: ocean.field: field " in capsys.readouterr().err

    def test_nonfinite_field_file_is_config_error(self, tmp_path, capsys):
        rows = [f"0,{x},{y},{'inf' if x == y == 1 else 0.1},0" for x in (0, 1) for y in (0, 1)]
        (tmp_path / "field.csv").write_text("t,x,y,u,v\n" + "\n".join(rows) + "\n")
        doc = json.loads(json.dumps(OCEAN_DOC))
        doc["ocean"]["field"] = {"path": "field.csv"}
        cfg = write(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: ocean.field: field components must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["greedy", 5, None])
    def test_unknown_adversary_policy_is_config_error(self, tmp_path, capsys, policy):
        doc = {"kind": "adversary", "adversary": {"T": 10, "policy": policy}}
        out = tmp_path / "o"
        assert main(["run", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
        assert "config error: adversary.policy: must be one of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["config", "field"])
    def test_file_that_is_not_utf8_is_config_error(self, tmp_path, capsys, kind):
        # UTF-16 text starts with the byte-order mark ff fe
        if kind == "config":
            bad = tmp_path / "cfg.json"
            bad.write_bytes(json.dumps(D2D_DOC).encode("utf-16"))
            cfg, key = str(bad), str(bad)
        else:
            bad = tmp_path / "field.csv"
            bad.write_bytes("t_s,x_m,y_m,u_mps,v_mps\n".encode("utf-16"))
            doc = json.loads(json.dumps(OCEAN_DOC))
            doc["ocean"]["field"] = {"path": "field.csv"}
            cfg, key = write(tmp_path, doc), "ocean.field.path"
        assert bad.read_bytes()[:2] == b"\xff\xfe"
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: " in err and str(bad) in err

    def test_one_slot_run_writes_float_zeros(self, tmp_path):
        doc = dict(OCEAN_DOC, goal_m=OCEAN_DOC["start_m"], delta_slots=0)
        cfg = write(tmp_path, doc)
        run, bench = tmp_path / "run", tmp_path / "bench"
        assert main(["run", "--config", cfg, "--out", str(run)]) == 0
        assert main(["benchmark", "--config", cfg, "--out", str(bench)]) == 0
        lines = (run / "summary.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert (row["S_T"], row["energy"]) == ("0.0", "0.0")
        report = json.loads((bench / "regret_report.json").read_text())
        assert (report["S_T"], report["energy_online_j"], report["offline_gap"]) == (0.0, 0.0, 0.0)
        assert all(type(report[k]) is float for k in ("S_T", "energy_online_j", "offline_gap"))

    def test_integral_float_integer_key_is_accepted(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", write(tmp_path, D2D_DOC), "--out", str(a)]) == 0
        doc = dict(D2D_DOC, seed=3.0)
        assert main(["run", "--config", write(tmp_path, doc, "f.json"), "--out", str(b)]) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_infeasible_exit_code(self, tmp_path):
        doc = json.loads(json.dumps(OCEAN_DOC))
        doc["ocean"]["field"]["synthetic"]["u_mps"] = 0.9
        doc["ocean"]["beta"] = 2.0
        doc["delta_slots"] = 40
        cfg = write(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_zero_gradient_holds_position(self, tmp_path):
        # start, goal and peer coincide: every gradient is exactly zero
        here = [3.0, 4.0]
        doc = {
            "kind": "d2d",
            "start_m": here,
            "goal_m": here,
            "peer": {"from_m": here, "to_m": here, "speed_mps": 0.0, "noise_std_m": 0.0},
            "v_max_mps": 1.0,
            "delta_slots": 4,
        }
        cfg = write(tmp_path, doc)
        out = tmp_path / "out"
        proc = run_python("-m", "trajsim.cli", "run", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        rows = read_trace(out / "trace.csv")
        assert len(rows) == 5
        assert all((r["x1"], r["x2"]) == (3.0, 4.0) for r in rows)

    def test_ocean_run(self, tmp_path):
        cfg = write(tmp_path, OCEAN_DOC)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert len(trace) > 2


class TestSweepCommand:
    def test_delta_sweep_outputs(self, tmp_path):
        cfg = write(tmp_path, D2D_DOC)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", cfg, "--param", "delta", "--values", "0,1,2", "--out", str(out)]
        )
        assert code == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 4
        assert (out / "trace_delta_0.csv").exists()
        assert (out / "trace_delta_2.csv").exists()

    def test_unconverged_rows_warn_on_stderr(self, tmp_path, capsys, monkeypatch):
        cfg = write(tmp_path, D2D_DOC)
        argv = ["sweep", "--config", cfg, "--param", "delta", "--values", "0,1,2"]
        assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
        assert "did not converge" not in capsys.readouterr().err
        # a three-iteration budget leaves every row's benchmark unconverged
        solve = trajsim.scenarios.solve_offline_batch
        monkeypatch.setattr(
            trajsim.scenarios, "solve_offline_batch", functools.partial(solve, max_iter=3)
        )
        out = tmp_path / "capped"
        assert main([*argv, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        for value in ("0", "1", "2"):
            warning = f"warning: delta={value}: offline benchmark did not converge (3 iterations)"
            assert warning in err
        assert (out / "summary.csv").read_text().splitlines()[0] == ",".join(SUMMARY_HEADER)


class TestBenchmarkCommand:
    def test_report_written(self, tmp_path):
        cfg = write(tmp_path, D2D_DOC)
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "regret_report.json").read_text())
        assert doc["regret"] >= -1e-6
        assert doc["solver_converged"] is True
        assert set(doc) >= {"S_T", "G_T", "E_T_bound", "E_T_realized"}

    def test_report_carries_solver_diagnostics(self, tmp_path):
        cfg = write(tmp_path, D2D_DOC)
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "regret_report.json").read_text())
        assert isinstance(doc["solver_iterations"], int) and doc["solver_iterations"] >= 1
        assert isinstance(doc["solver_restarts"], int)
        assert 0 <= doc["solver_restarts"] <= doc["solver_iterations"]

    def test_report_carries_the_regret_interval(self, tmp_path):
        cfg = write(tmp_path, D2D_DOC)
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "regret_report.json").read_text())
        assert math.isfinite(doc["offline_gap"]) and doc["offline_gap"] >= 0.0
        assert doc["regret_upper"] == doc["regret"] + doc["offline_gap"]
        assert doc["solver_converged"] is True

    def test_box_binding_report_is_certified(self, tmp_path):
        # the box cuts the peer's side off, so the offline optimum presses on it
        cfg = write(tmp_path, dict(D2D_DOC, feasible_box_m={"lo": [-1.0, -1.0], "hi": [11.0, 0.5]}))
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "regret_report.json").read_text())
        assert math.isfinite(doc["offline_gap"]) and doc["offline_gap"] >= 0.0
        assert doc["regret_upper"] == doc["regret"] + doc["offline_gap"]
        assert doc["solver_converged"] is True


class TestOracleCommand:
    def test_small_instance_comparison(self, tmp_path):
        doc = dict(D2D_DOC, goal_m=[3.0, 0.0], delta_slots=1)
        cfg = write(tmp_path, doc)
        out = tmp_path / "oracle"
        assert main(["oracle", "--config", cfg, "--grid", "21x21", "--out", str(out)]) == 0
        res = json.loads((out / "oracle.json").read_text())
        assert res["gap"] >= -1e-3

    def test_long_horizon_rejected(self, tmp_path):
        cfg = write(tmp_path, D2D_DOC)  # horizon 12
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_grid_spec(self, tmp_path):
        doc = dict(D2D_DOC, goal_m=[3.0, 0.0], delta_slots=1)
        cfg = write(tmp_path, doc)
        assert main(["oracle", "--config", cfg, "--grid", "lots", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("grid", ["200x200", "41x102", "0x5", "1x41"])
    def test_grid_size_out_of_range(self, tmp_path, capsys, grid):
        doc = dict(D2D_DOC, goal_m=[3.0, 0.0], delta_slots=1)
        cfg = write(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["oracle", "--config", cfg, "--grid", grid, "--out", str(out)]) == 2
        assert "--grid" in capsys.readouterr().err
        assert not (out / "oracle.json").exists()


class TestAdversaryCommand:
    def test_outputs(self, tmp_path, capsys):
        out = tmp_path / "adv"
        assert main(["adversary", "--T", "100", "--W", "1", "--policy", "zero", "--out", str(out)]) == 0
        doc = json.loads((out / "adversary.json").read_text())
        assert doc["regret"] == 50.0
        assert doc["lower_bound"] == 50.0
        assert "regret" in capsys.readouterr().out

    def test_run_writes_the_same_keys(self, tmp_path, capsys):
        doc = {"kind": "adversary", "seed": 5, "adversary": {"T": 40, "W": 1.5, "policy": "zero"}}
        run_out, adv_out = tmp_path / "run", tmp_path / "adv"
        assert main(["run", "--config", write(tmp_path, doc), "--out", str(run_out)]) == 0
        argv = ["--T", "40", "--W", "1.5", "--policy", "zero", "--seed", "5"]
        assert main(["adversary", *argv, "--out", str(adv_out)]) == 0
        got = json.loads((run_out / "adversary.json").read_text())
        assert got["lower_bound"] == 0.5 * 1.5**2 * 40
        assert got == json.loads((adv_out / "adversary.json").read_text())

    @pytest.mark.parametrize(
        ("T", "W"),
        [("0", "1"), ("-4", "1"), ("100", "0"), ("100", "-1"), ("100", "nan"), ("100", "inf")],
    )
    def test_out_of_range_horizon_or_width_is_config_error(self, tmp_path, capsys, T, W):
        out = tmp_path / "adv"
        assert main(["adversary", "--T", T, "--W", W, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "adversary.json").exists()


def test_import_leaves_scipy_out():
    # scipy is not a dependency; importing it would add to every start-up
    proc = run_python("-c", "import sys, trajsim, trajsim.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
