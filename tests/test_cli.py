import csv
import functools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import ascent_reference
import numpy as np
import pytest
from field_reference import sample_velocity_loop

import trajsim
from trajsim import (
    NoiseModel, config_hash, parse_config, perturb_field, run_scenario, sample_velocity,
    solve_offline,
)
from trajsim import cli
from trajsim.cli import main
from trajsim.geom import norm
from trajsim.metrics import GAP_EVERY
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
        assert "config error: feasible_box_m: does not contain start [0.0, 0.0]\n" in capsys.readouterr().err

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

    def test_negative_perturbation_seed_is_config_error(self, tmp_path, capsys):
        # numpy's generator raised ValueError on it, a traceback
        doc = json.loads(json.dumps(OCEAN_DOC))
        doc["ocean"]["perturbation"] = {"sigma_fraction": 0.05, "seed": -1}
        assert main(["run", "--config", write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: ocean.perturbation.seed: must be a nonnegative integer, got -1" in err

    def test_negative_master_seed_runs_and_replays(self, tmp_path):
        # the field seed derived from --seed -5000000 was negative
        doc = json.loads(json.dumps(OCEAN_DOC))
        doc["ocean"]["perturbation"] = {"sigma_fraction": 0.05, "seed": 0}
        cfg = write(tmp_path, doc)
        for out in ("a", "b"):
            argv = ["run", "--config", cfg, "--seed", "-5000000", "--out", str(tmp_path / out)]
            assert main(argv) == 0
        for name in ("trace.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("d2d", {"mu": "garbage"}),
            ("start_m", "x"),
            ("goal_m", [1.0, 1.0]),
            ("feasible_box_m", 3),
            ("peer", [0.0, 0.0]),
            ("ocean", {}),
            ("gradient_noise", {"kind": 7}),
            ("delta_slots", 2),
            ("v_max_mps", 1.0),
            ("slot_duration_s", 1.0),
        ],
    )
    def test_adversary_document_rejects_keys_the_game_never_reads(self, tmp_path, capsys, key, value):
        # such a document used to run and exit 0
        doc = {"kind": "adversary", "seed": 3, "adversary": {"T": 10}, key: value}
        assert main(["run", "--config", write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {key}: an adversary game does not read this key" in capsys.readouterr().err
        assert not (tmp_path / "o" / "adversary.json").exists()

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
            ("d2d.mu", 0.0),
            ("d2d.bandwidth_hz", 0.0),
            ("d2d.noise_power", -0.2),
            ("gradient_noise.decay_q", -0.5),
            ("gradient_noise.eps0", -1.0),
            ("gradient_noise.kind", "laplace"),
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

    def test_walking_goal_rejects_noise_std(self, tmp_path, capsys):
        # only the peer's walk carries position noise; the goal's was dropped unread
        goal = {"from_m": [10.0, 0.0], "to_m": [10.0, 0.0], "noise_std_m": 5.0}
        cfg = write(tmp_path, dict(D2D_DOC, goal_m=goal))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: goal_m.noise_std_m: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("key", "grids"),
        [
            ("x_grid_m", {"x_grid_m": {"min": -50, "max": 150, "n": 1e12}}),
            ("t_grid_s", {"t_grid_s": {"min": 0, "max": 100, "n": 1e308}}),
            ("y_grid_m", {"x_grid_m": list(range(-50, 3113)), "y_grid_m": list(range(-50, 3113))}),
        ],
        ids=["range", "huge-n", "lists"],
    )
    def test_lattice_over_the_node_bound_is_config_error(self, tmp_path, capsys, key, grids):
        # the {min, max, n} form built all n points first, so n = 1e12 hung the parser
        doc = json.loads(json.dumps(OCEAN_DOC))
        doc["ocean"]["field"].update(grids)
        cfg = write(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: ocean.field.{key}: the lattice has over 10,000,000 nodes" in err

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

    @pytest.mark.parametrize(
        "param, values", [("noise_sigma", "0.1,0.1000001"), ("noise_sigma", "1,1"), ("delta", "2,0,2.0")]
    )
    def test_values_sharing_a_trace_name_exit_2_before_any_row(
        self, tmp_path, capsys, monkeypatch, param, values
    ):
        # one trace file per row: a second row of the same label would overwrite
        # the first, and the manifest would list its path twice
        def no_rows(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(trajsim.cli, "sweep", no_rows)
        cfg = write(tmp_path, D2D_DOC)
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", cfg, "--param", param, "--values", values]
        assert main([*argv, "--out", str(out)]) == 2
        assert "--values" in capsys.readouterr().err
        assert not out.exists()

    def test_distinct_labels_keep_their_trace_names(self, tmp_path):
        cfg = write(tmp_path, D2D_DOC)
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", cfg, "--param", "noise_sigma", "--values", "0.1,0.25,2"]
        assert main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        traces = sorted(p.name for p in out.glob("trace_*.csv"))
        assert traces == [
            "trace_noise_sigma_0p1.csv", "trace_noise_sigma_0p25.csv", "trace_noise_sigma_2.csv"
        ]
        paths = [Path(p).name for p in manifest["outputs"]]
        assert len(paths) == len(set(paths)) == 4

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
        assert isinstance(doc["solver_newton_solves"], int) and doc["solver_newton_solves"] >= 0

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


def _outputs(out: Path) -> dict:
    """Every file a command wrote, by name; the manifest without its clock reading or ``out``."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    manifest = json.loads(files.pop("manifest.json"))
    assert manifest.pop("started_at")
    manifest["outputs"] = [str(Path(o).relative_to(out)) for o in manifest["outputs"]]
    return dict(files, manifest=manifest)


class TestKeptParser:
    """``main`` builds its parser once per process and reads everything else per call."""

    def test_import_builds_no_parser(self):
        proc = run_python("-c", "import trajsim.cli as c; print(c._parser is None)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_parser_is_built_once_across_calls(self, tmp_path, monkeypatch, capsys):
        built = []

        def spy():
            built.append(1)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", spy)
        cfg = write(tmp_path, D2D_DOC)
        for i in range(3):
            assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / f"o{i}")]) == 0
        with pytest.raises(SystemExit):
            main(["run", "--config", cfg])
        assert len(built) == 1
        assert build() is not build()

    @pytest.mark.parametrize("command", ["run", "benchmark"])
    def test_calls_after_help_and_a_usage_error_write_a_first_calls_bytes(
        self, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.setattr(cli, "_parser", None)
        cfg = write(tmp_path, D2D_DOC)
        argv = [command, "--config", cfg, "--out"]
        assert main(argv + [str(tmp_path / "first")]) == 0
        first_out = capsys.readouterr().out
        for bad, code in ((["--help"], 0), ([command, "--help"], 0), ([command, "--bogus"], 2),
                          (["nosuch"], 2), ([command, "--seed", "x", "--config", cfg], 2)):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == code, bad
        capsys.readouterr()
        assert main(argv + [str(tmp_path / "again")]) == 0
        assert capsys.readouterr().out == first_out
        assert _outputs(tmp_path / "again") == _outputs(tmp_path / "first")

    def test_seed_from_the_environment_is_read_per_call(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, D2D_DOC)
        for seed in ("21", "22"):
            monkeypatch.setenv("TRAJSIM_SEED", seed)
            assert main(["run", "--config", cfg, "--out", str(tmp_path / f"env{seed}")]) == 0
        monkeypatch.delenv("TRAJSIM_SEED")
        for seed in ("21", "22"):
            out = str(tmp_path / seed)
            assert main(["run", "--config", cfg, "--seed", seed, "--out", out]) == 0
            env, flag = _outputs(tmp_path / f"env{seed}"), _outputs(tmp_path / seed)
            assert env == flag and env["manifest"]["seed"] == int(seed)
        traces = [_outputs(tmp_path / f"env{seed}")["trace.csv"] for seed in ("21", "22")]
        assert traces[0] != traces[1]

    @pytest.mark.parametrize("command", ["run", "benchmark", "sweep"])
    def test_manifest_hash_is_the_config_files_hash(self, tmp_path, command):
        # keys out of order and spaced: the digest is of the canonical document
        text = json.dumps(dict(reversed(list(D2D_DOC.items()))), indent=3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--param", "delta", "--values", "1,2"]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg) == config_hash(write(tmp_path, D2D_DOC))


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


NO_EPISODE = "kind: no episode runner for kind 'adversary'"


class TestCommandSkeleton:
    """Every check runs before the output directory; one path writes the manifest and exit 4."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["sweep", "--config", "game", "--param", "delta", "--values", "1,2"], NO_EPISODE),
            (["benchmark", "--config", "game"], NO_EPISODE),
            (["oracle", "--config", "game"], NO_EPISODE),
            (["oracle", "--config", "short", "--grid", "3y3"], "--grid: expected NxM, got '3y3'"),
            (["oracle", "--config", "short", "--grid", "1x1"], "--grid: needs 2 to 101 nodes"),
            (["oracle", "--config", "d2d"], "delta_slots: oracle runs need horizon <= 6"),
            (["sweep", "--config", "d2d", "--param", "delta", "--values", ","],
             "--values: sweep needs at least one value"),
            (["adversary", "--T", "0", "--W", "1"], "--T: must be an integer >= 1, got 0"),
        ],
        ids=[
            "sweep-game", "benchmark-game", "oracle-game", "oracle-grid-3y3", "oracle-grid-1x1",
            "oracle-horizon", "sweep-no-values", "adversary-T0",
        ],
    )
    def test_a_rejected_command_leaves_no_output_directory(self, tmp_path, capsys, argv, message):
        # each of these but the last made its directory first; the sweep of a game exited 0
        configs = {
            "game": write(tmp_path, {"kind": "adversary", "adversary": {"T": 10}}, "game.json"),
            "short": write(tmp_path, dict(D2D_DOC, goal_m=[3.0, 0.0], delta_slots=1), "short.json"),
            "d2d": write(tmp_path, D2D_DOC),
        }
        out = tmp_path / "out"
        assert main([configs.get(a, a) for a in argv] + ["--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "files", "warning"),
        [
            ("run", ["trace.csv", "summary.csv"], "warning: offline benchmark did not converge"),
            ("benchmark", ["regret_report.json", "trace.csv"], "offline solver did not converge:"),
            ("oracle", ["oracle.json"], None),
        ],
    )
    def test_an_unconverged_solve_exits_4_after_its_manifest(
        self, tmp_path, capsys, monkeypatch, command, files, warning
    ):
        # a three-iteration budget leaves the offline solve unconverged
        for module in (trajsim.metrics, cli):
            monkeypatch.setattr(module, "solve_offline", functools.partial(solve_offline, max_iter=3))
        cfg = write(tmp_path, dict(D2D_DOC, goal_m=[3.0, 0.0], delta_slots=1))
        out = tmp_path / "out"
        grid = ["--grid", "9x9"] if command == "oracle" else []
        assert main([command, "--config", cfg, *grid, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        if warning is None:
            assert err == ""
        else:
            assert err.startswith(warning) and err.count("\n") == 1, err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / name) for name in files]
        assert sorted(p.name for p in out.iterdir()) == sorted([*files, "manifest.json"])


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

    # regret of each policy's game at T = 257, W = 1.7, seed 9, as the
    # two-list game wrote it; both commands write these bytes
    @pytest.mark.parametrize(
        ("policy", "regret"),
        [
            ("ioga", 1481.1249999999943),
            ("zero", 371.3649999999986),
            ("random", 873.1101616958574),
        ],
    )
    def test_adversary_json_bytes_are_pinned(self, tmp_path, capsys, policy, regret):
        text = (
            f'{{\n  "T": 257,\n  "W": 1.7,\n  "policy": "{policy}",\n'
            f'  "regret": {regret!r},\n  "lower_bound": 371.36499999999995\n}}\n'
        )
        doc = {"kind": "adversary", "seed": 9, "adversary": {"T": 257, "W": 1.7, "policy": policy}}
        run_out, adv_out = tmp_path / "run", tmp_path / "adv"
        assert main(["run", "--config", write(tmp_path, doc), "--out", str(run_out)]) == 0
        argv = ["--T", "257", "--W", "1.7", "--policy", policy, "--seed", "9"]
        assert main(["adversary", *argv, "--out", str(adv_out)]) == 0
        assert (run_out / "adversary.json").read_text() == text
        assert (adv_out / "adversary.json").read_text() == text

    def test_huge_horizon_exits_at_once(self, tmp_path, capsys):
        # before the bound, both commands played the game for 10^12 slots
        t0 = time.perf_counter()
        argv = ["adversary", "--T", "1000000000000", "--W", "1", "--out", str(tmp_path / "adv")]
        assert main(argv) == 2
        assert "config error: --T: must be <= 10,000,000, got 1000000000000\n" in capsys.readouterr().err
        doc = {"kind": "adversary", "adversary": {"T": 1e12}}
        assert main(["run", "--config", write(tmp_path, doc), "--out", str(tmp_path / "run")]) == 2
        assert "config error: adversary.T: must be <= 10,000,000" in capsys.readouterr().err
        assert time.perf_counter() - t0 < 1.0
        assert not (tmp_path / "adv" / "adversary.json").exists()

    @pytest.mark.parametrize(
        ("T", "W", "message"),
        [
            ("0", "1", "--T: must be an integer >= 1, got 0"),
            ("100", "0", "--W: must be a finite number > 0, got 0.0"),
            ("100", "nan", "--W: must be a finite number > 0, got nan"),
            # W^2 overflowed to an OverflowError traceback
            ("1", "1e200", "--W: must be <= 1e+150, got 1e+200"),
        ],
    )
    def test_adversary_params_errors_name_the_flag(self, tmp_path, capsys, T, W, message):
        assert main(["adversary", "--T", T, "--W", W, "--out", str(tmp_path / "adv")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err


class TestStockConfigReplays:
    """The sample configs' runs against their reference forms, and each run against its replay."""

    def test_batch_noise_stream(self, tmp_path):
        # the episode's one-pass draw is the per-slot draw, bit for bit
        n = 100_000
        for seed in (1, 20011, 2**64 - 1):
            model = NoiseModel("gaussian_decaying", 0.1, 0.5, seed)
            eps, draws = model.draws(n)
            # compared outside the assert, so that a failure is not a diff of megabytes
            same_eps = repr(eps) == repr([model.eps(t) for t in range(1, n + 1)])
            same_draws = repr(draws) == repr([model.draw(t) for t in range(1, n + 1)])
            assert same_eps and same_draws, (seed, same_eps, same_draws)
        cfg = str(CONFIGS / "commute.json")
        for run in "ab":
            out = str(tmp_path / run)
            assert main(["run", "--mode", "lookahead", "--config", cfg, "--out", out]) == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()

    def test_field_sampler_memo(self, tmp_path):
        path = CONFIGS / "voyage.json"
        for run in "ab":
            assert main(["run", "--config", str(path), "--out", str(tmp_path / run)]) == 0
        trace = tmp_path / "a" / "trace.csv"
        assert trace.read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()
        # the voyage's two fields, sampled in the episode's order along its path:
        # each sample, a memo hit or not, is the loop form's, bit for bit
        cfg = parse_config(path)
        fields = (cfg.ocean_field, perturb_field(cfg.ocean_field, cfg.perturbation))
        assert fields[1] is not fields[0]
        tau = cfg.slot_duration_s
        rows = read_trace(trace)
        for t, row in enumerate(rows):
            p, s = (row["x1"], row["x2"]), t * tau
            for f in fields:
                got, want = sample_velocity(f, p, s), sample_velocity_loop(f, p, s)
                assert repr(got) == repr(want), (t, p, got, want)
        assert len(rows) > 1, rows

    def test_certified_restart(self, tmp_path):
        # the ascent computes its totals only for the steps the descent lemma
        # leaves unsure; its solve must be the one of the loop that computes
        # them every step, on the T = 124 Huber commute
        doc = json.loads((CONFIGS / "commute.json").read_text(encoding="utf-8"))
        doc["d2d"]["utility"], doc["delta_slots"] = "huber", 100
        cfg = write(tmp_path, doc, "restart_huber.json")
        for run in "ab":
            assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / run)]) == 0
        report = (tmp_path / "a" / "regret_report.json").read_bytes()
        assert report == (tmp_path / "b" / "regret_report.json").read_bytes()
        episode = run_scenario(parse_config(cfg), benchmark=False)
        (ref,) = ascent_reference.solve_offline_batch([episode.problem], [episode.trajectory])
        got = json.loads(report)
        want = {"solver_iterations": ref.iterations, "solver_restarts": ref.restarts, "offline_gap": ref.gap}
        assert {k: got[k] for k in want} == want, (got, want)

    def test_exact_huber_gradient_variation(self, tmp_path):
        doc = json.loads((CONFIGS / "commute.json").read_text(encoding="utf-8"))
        doc["d2d"]["utility"] = "huber"
        cfg = write(tmp_path, doc, "commute_huber.json")
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "regret_report.json").read_text(encoding="utf-8"))
        assert doc["G_T_exact"] is True, doc
        g_t = doc["G_T"]
        assert isinstance(g_t, float) and math.isfinite(g_t) and g_t > 0.0, doc
        assert doc["solver_converged"] is True, doc
        # the stop rule: the solve starts at the online path, so its gain is the regret
        gap = doc["offline_gap"]
        assert isinstance(gap, float) and math.isfinite(gap) and gap >= 0.0, gap
        assert gap <= 1e-3 * max(1.0, doc["regret"]) * (1.0 + 1e-9), doc
        assert doc["regret_upper"] >= doc["regret"], doc

    def test_certified_offline_benchmark(self, tmp_path):
        cfg, out = str(CONFIGS / "commute.json"), tmp_path / "benchmark"
        assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "regret_report.json").read_text(encoding="utf-8"))
        gap = doc["offline_gap"]
        assert isinstance(gap, float) and math.isfinite(gap) and gap >= 0.0, gap
        assert doc["regret_upper"] >= doc["regret"], doc
        assert doc["solver_converged"] is True, doc
        # the stop rule: the solve starts at the online path, so its gain is the regret
        assert gap <= 1e-3 * max(1.0, doc["regret"]) * (1.0 + 1e-9), doc

    def test_certified_box_binding_offline_benchmark(self, tmp_path):
        doc = json.loads((CONFIGS / "commute.json").read_text(encoding="utf-8"))
        doc["feasible_box_m"] = {"lo": [-100, 0], "hi": [900, 700]}
        cfg, out = write(tmp_path, doc, "commute_boxed.json"), tmp_path / "benchmark_boxed"
        assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "regret_report.json").read_text(encoding="utf-8"))
        assert doc["solver_converged"] is True, doc
        gap = doc["offline_gap"]
        assert isinstance(gap, float) and math.isfinite(gap) and gap >= 0.0, gap
        assert doc["regret_upper"] >= doc["regret"], doc

    def test_scheduled_gap_checks(self, tmp_path):
        # the stock commute's Huber solve stops at 40 iterations, where each
        # of its five checks is needed; 100 slack slots make it long enough
        # (T = 124) for the schedule to skip the checks its trend rules out
        doc = json.loads((CONFIGS / "commute.json").read_text(encoding="utf-8"))
        doc["d2d"]["utility"], doc["delta_slots"] = "huber", 100
        cfg = write(tmp_path, doc, "commute_huber_long.json")
        report = run_scenario(parse_config(cfg), benchmark=False)
        sol = solve_offline(report.problem, x0=report.trajectory)
        u0 = report.problem.utilities.total(report.trajectory)
        assert sol.converged, sol
        assert sol.gap <= 1e-3 * max(1.0, sol.utility - u0), (sol.gap, sol.utility, u0)
        # a check every GAP_EVERY iterations would run iterations / GAP_EVERY + 1
        assert sol.checks < sol.iterations / GAP_EVERY, (sol.checks, sol.iterations)
        for run in "ab":
            assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / run)]) == 0
        report = (tmp_path / "a" / "regret_report.json").read_bytes()
        assert report == (tmp_path / "b" / "regret_report.json").read_bytes()
        # the Newton finish ends this solve, and the report says so
        assert json.loads(report)["solver_newton_solves"] == sol.newton_solves > 0

    def test_one_utility_formula(self, tmp_path):
        for name in ("commute", "voyage"):
            path, out = CONFIGS / f"{name}.json", tmp_path / name
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            report = run_scenario(parse_config(path), benchmark=False)
            family = report.problem.utilities
            # each trace utility cell is its slot's share of the family's total, bit for bit
            rows = read_trace(out / "trace.csv")
            terms = family.slot_terms(np.array([(row["x1"], row["x2"]) for row in rows]))
            want = [repr(family.total_scale * float(np.sum(t))) for t in terms]
            got = [repr(row["utility"]) for row in rows]
            assert got == want, (name, [(g, w) for g, w in zip(got, want) if g != w][:3])
            # and each grad_norm cell is the norm of its step's noisy gradient
            with open(out / "trace.csv", encoding="utf-8", newline="") as fh:
                cells = [row["grad_norm"] for row in csv.DictReader(fh)]
            norms = [repr(norm(rec.grad_tilde)) for rec in report.records]
            assert cells == norms + [""], name


def test_import_leaves_scipy_out():
    # scipy is not a dependency; importing it would add to every start-up
    proc = run_python("-c", "import sys, trajsim, trajsim.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
