import functools
import json
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
