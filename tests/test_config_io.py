import dataclasses
import json
import math

import pytest

from trajsim.config import RunManifest, config_hash, parse_config, parse_config_doc
from trajsim.engine import NoiseModel
from trajsim.errors import SchemaError, UnitsError
from trajsim.field import FieldPerturbation
from trajsim.scenarios import PathSpec, ScenarioConfig, SweepRow, run_d2d, run_ocean
from trajsim.traces import (
    SUMMARY_HEADER,
    TRACE_HEADER,
    emit_summary,
    emit_trace,
    read_summary,
    read_trace,
)

MINIMAL_D2D = {
    "kind": "d2d",
    "start_m": [0.0, 0.0],
    "goal_m": [12.0, 0.0],
    "peer": {"from_m": [0.0, 3.0], "to_m": [12.0, 3.0], "speed_mps": 1.0},
    "v_max_mps": 1.0,
    "delta_slots": 3,
}


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


class TestParseConfig:
    def test_minimal_d2d_resolves_horizon(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL_D2D))
        assert cfg.kind == "d2d"
        assert cfg.t_eta == math.ceil(12.0 / 1.0)
        assert cfg.horizon == cfg.t_eta + 3

    def test_alpha_min_default_matches_dataclass(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL_D2D))
        defaults = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}
        assert cfg.alpha_min == defaults["alpha_min"] == 0.05

    def test_unknown_key_named(self, tmp_path):
        doc = dict(MINIMAL_D2D, velmax=3.0)
        with pytest.raises(SchemaError) as err:
            parse_config(write_config(tmp_path, doc))
        assert "velmax" in str(err.value)

    def test_nested_unknown_key_has_path(self, tmp_path):
        doc = dict(MINIMAL_D2D, d2d={"mu": 0.1, "margn": 1.0})
        with pytest.raises(SchemaError) as err:
            parse_config(write_config(tmp_path, doc))
        assert "d2d.margn" in str(err.value)

    def test_negative_delta_rejected(self, tmp_path):
        doc = dict(MINIMAL_D2D, delta_slots=-1)
        with pytest.raises(SchemaError):
            parse_config(write_config(tmp_path, doc))

    def test_missing_unit_field_is_units_error(self, tmp_path):
        doc = {k: v for k, v in MINIMAL_D2D.items() if k != "v_max_mps"}
        with pytest.raises(UnitsError):
            parse_config(write_config(tmp_path, doc))

    def test_ocean_with_synthetic_field(self, tmp_path):
        doc = {
            "kind": "ocean",
            "start_m": [5.0, 5.0],
            "goal_m": [40.0, 40.0],
            "v_max_mps": 1.0,
            "delta_slots": 5,
            "ocean": {
                "lambda_strategy": "increasing",
                "beta": 0.4,
                "field": {
                    "synthetic": {"kind": "uniform", "u_mps": 0.2, "v_mps": 0.0},
                    "x_grid_m": {"min": 0, "max": 100, "n": 11},
                    "y_grid_m": {"min": 0, "max": 100, "n": 11},
                },
                "perturbation": {"sigma_fraction": 0.05, "seed": 3},
            },
        }
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.kind == "ocean"
        assert cfg.ocean_field.v_o_max == pytest.approx(0.2)
        assert cfg.perturbation == FieldPerturbation(0.05, seed=3)
        run_ocean(cfg, benchmark=False)

    def test_ocean_field_file_relative_to_config(self, tmp_path):
        rows = ["t,x,y,u,v"]
        for y in (0.0, 50.0):
            for x in (0.0, 50.0):
                rows.append(f"0.0,{x},{y},0.1,0.0")
        (tmp_path / "currents.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        doc = {
            "kind": "ocean",
            "start_m": [5.0, 5.0],
            "goal_m": [30.0, 30.0],
            "v_max_mps": 1.0,
            "delta_slots": 2,
            "ocean": {"field": {"path": "currents.csv"}},
        }
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.ocean_field.v_o_max == pytest.approx(0.1)

    def test_gradient_noise_block(self, tmp_path):
        doc = dict(
            MINIMAL_D2D,
            gradient_noise={"kind": "gaussian_decaying", "eps0": 0.3, "decay_q": 1.0, "seed": 7},
        )
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.gradient_noise == NoiseModel("gaussian_decaying", 0.3, 1.0, 7)

    def test_adversary_kind(self, tmp_path):
        doc = {"kind": "adversary", "adversary": {"T": 50, "W": 2.0, "policy": "ioga"}}
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.adversary.horizon == 50
        assert cfg.adversary.width == 2.0

    @pytest.mark.parametrize(
        "patch, path",
        [
            ({"start_m": [math.nan, 0.0]}, "start_m"),
            ({"goal_m": [math.inf, 0.0]}, "goal_m"),
            ({"goal_m": {"from_m": [0.0, 0.0], "to_m": [12.0, -math.inf]}}, "goal_m.to_m"),
            ({"feasible_box_m": {"lo": [10.0, -5.0], "hi": [-10.0, 5.0]}}, "feasible_box_m"),
            ({"feasible_box_m": {"lo": [-5.0, -5.0], "hi": [math.nan, 5.0]}}, "feasible_box_m.hi"),
            ({"feasible_box_m": {"lo": [1.0, -5.0], "hi": [20.0, 5.0]}}, "feasible_box_m"),
        ],
        ids=["nan-start", "inf-goal", "inf-walk", "inverted-box", "nan-box", "box-excludes-start"],
    )
    def test_bad_points_and_boxes_are_schema_errors(self, patch, path):
        with pytest.raises(SchemaError) as err:
            parse_config_doc(dict(MINIMAL_D2D, **patch))
        assert err.value.path == path

    def test_box_may_touch_the_start(self):
        doc = dict(MINIMAL_D2D, feasible_box_m={"lo": [0.0, 0.0], "hi": [20.0, 0.0]})
        assert parse_config_doc(doc).feasible_box.lo == (0.0, 0.0)

    def test_bad_json_is_schema_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            parse_config(p)

    def test_hash_is_format_insensitive(self, tmp_path):
        a = write_config(tmp_path, MINIMAL_D2D, "a.json")
        b = tmp_path / "b.json"
        b.write_text(json.dumps(MINIMAL_D2D, indent=4, sort_keys=True), encoding="utf-8")
        assert config_hash(a) == config_hash(b)


@pytest.fixture
def d2d_report():
    cfg = ScenarioConfig(
        kind="d2d",
        start=(0.0, 0.0),
        goal=PathSpec((10.0, 0.0), (10.0, 0.0)),
        peer=PathSpec((0.0, 2.0), (10.0, 2.0), speed_mps=1.0),
        peer_noise_std_m=0.5,
        delta=2,
        v_max_mps=1.0,
        gradient_noise=NoiseModel("gaussian_decaying", 0.1, 1.0, 3),
        seed=5,
    )
    return run_d2d(cfg)


class TestTraces:
    def test_header_and_row_count(self, tmp_path, d2d_report):
        path = tmp_path / "trace.csv"
        emit_trace(d2d_report, path)
        rows = read_trace(path)
        assert len(rows) == d2d_report.horizon
        header = path.read_text().splitlines()[0]
        assert header == ",".join(TRACE_HEADER)

    def test_single_slot_trace(self, tmp_path):
        cfg = ScenarioConfig(
            kind="d2d",
            start=(1.0, 1.0),
            goal=PathSpec((1.0, 1.0), (1.0, 1.0)),
            peer=PathSpec((0.0, 0.0), (0.0, 0.0)),
            delta=0,
            v_max_mps=1.0,
        )
        rep = run_d2d(cfg, benchmark=False)
        assert rep.horizon == 1
        path = tmp_path / "tiny.csv"
        emit_trace(rep, path)
        rows = read_trace(path)
        assert len(rows) == 1
        assert rows[0]["gamma"] is None  # no step on the last slot
        assert rows[0]["x1"] == 1.0

    def test_reemission_is_byte_identical(self, tmp_path, d2d_report):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_trace(d2d_report, a)
        emit_trace(d2d_report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_values_roundtrip_exactly(self, tmp_path, d2d_report):
        path = tmp_path / "trace.csv"
        emit_trace(d2d_report, path)
        rows = read_trace(path)
        for t, row in enumerate(rows):
            assert row["x1"] == d2d_report.trajectory[t][0]
            assert row["x2"] == d2d_report.trajectory[t][1]
        for t, rec in enumerate(d2d_report.records):
            assert rows[t]["gamma"] == rec.gamma
            assert rows[t]["slack"] == rec.constraint_slack

    def test_emitted_slack_within_tolerance(self, tmp_path, d2d_report):
        path = tmp_path / "trace.csv"
        emit_trace(d2d_report, path)
        for row in read_trace(path):
            if row["slack"] is not None:
                assert row["slack"] <= 1e-9

    def test_summary_columns(self, tmp_path, d2d_report):
        path = tmp_path / "summary.csv"
        emit_summary([SweepRow("", "", d2d_report)], path)
        rows = read_summary(path)
        assert len(rows) == 1
        row = rows[0]
        assert path.read_text().splitlines()[0] == ",".join(SUMMARY_HEADER)
        rr = d2d_report.regret_report
        assert row["regret"] == pytest.approx(rr.regret)
        assert row["avg_rate"] == pytest.approx(d2d_report.avg_rate)
        assert row["final_goal_distance"] == pytest.approx(rr.final_goal_distance)


class TestManifest:
    def test_manifest_roundtrip(self, tmp_path):
        m = RunManifest.create("abc123", 7, ["x.csv"])
        p = tmp_path / "manifest.json"
        m.write(p)
        doc = json.loads(p.read_text())
        assert doc["config_hash"] == "abc123"
        assert doc["seed"] == 7
        assert doc["outputs"] == ["x.csv"]
        assert doc["tool_version"]
