import dataclasses
import json
import math
import pickle
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from trace_reference import emit_trace_csv

import trajsim.config
from trajsim.config import _DOC_PATHS, RunManifest, config_hash, parse_config, parse_config_doc
from trajsim.engine import NoiseModel, StepColumns
from trajsim.errors import SchemaError, TrajsimError, UnitsError
from trajsim.field import FieldPerturbation
from trajsim.geom import norm
from trajsim.scenarios import (
    MAX_ADVERSARY_T,
    MAX_HORIZON,
    AdversaryParams,
    EpisodeReport,
    PathSpec,
    ScenarioConfig,
    SweepRow,
    run_scenario,
)
from trajsim.traces import (
    _CHUNK_ROWS,
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


MINIMAL_VOYAGE = {
    "kind": "ocean",
    "start_m": [5.0, 5.0],
    "goal_m": [40.0, 40.0],
    "v_max_mps": 1.0,
    "ocean": {
        "field": {
            "synthetic": {"kind": "uniform", "u_mps": 0.2, "v_mps": 0.0},
            "x_grid_m": [0.0, 100.0],
            "y_grid_m": [0.0, 100.0],
        }
    },
}


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _voyage_doc():
    doc = json.loads((CONFIGS / "voyage.json").read_text(encoding="utf-8"))
    doc["ocean"]["field"]["t_grid_s"] = {"min": 0, "max": 100, "n": 3}
    return doc


# valid documents whose leaves the fuzz replaces one at a time
FUZZ_DOCS = {
    "commute": json.loads((CONFIGS / "commute.json").read_text(encoding="utf-8")),
    "voyage": _voyage_doc(),
    "adversary": {"kind": "adversary", "seed": 1, "adversary": {"T": 50, "W": 2.0, "policy": "ioga"}},
}


def _leaf_paths(doc, prefix=()):
    """The key path of every leaf of a JSON document: scalars and empty containers."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    items = list(items)
    if not items:
        yield prefix
    for key, value in items:
        yield from _leaf_paths(value, prefix + (key,))


def _json_values(max_float: float):
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=6),
        st.integers(-3, 60),
        st.floats(-max_float, max_float),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=5,
    )


_ANY_JSON = _json_values(1e308)


@st.composite
def fuzzed_leaves(draw):
    name = draw(st.sampled_from(sorted(FUZZ_DOCS)))
    path = draw(st.sampled_from(list(_leaf_paths(FUZZ_DOCS[name]))))
    return name, path, draw(_ANY_JSON)


class TestConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(case=fuzzed_leaves())
    @example(case=("voyage", ("ocean", "field", "synthetic", "strength_mps"), 1e308))
    @example(case=("voyage", ("ocean", "field", "synthetic", "strength_mps"), 1e300))
    @example(case=("adversary", ("adversary", "policy"), "greedy"))
    @example(case=("adversary", ("adversary", "policy"), 5))
    @example(case=("voyage", ("ocean", "field", "x_grid_m", "n"), 1e308))
    @example(case=("adversary", ("adversary", "T"), 10**12))
    def test_parser_returns_a_config_or_a_trajsim_error(self, case):
        name, path, value = case
        doc = json.loads(json.dumps(FUZZ_DOCS[name]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        # the goal-speed warning is legitimate; any other warning, such as an
        # overflow, fails the test under pytest's filterwarnings = error
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                cfg = parse_config_doc(doc)
            except TrajsimError:
                return
        assert isinstance(cfg, ScenarioConfig)
        if cfg.kind == "adversary":
            assert cfg.adversary.policy in ("ioga", "zero", "random")
            assert cfg.adversary.horizon <= MAX_ADVERSARY_T
        else:
            assert 1 <= cfg.horizon <= MAX_HORIZON and math.isfinite(cfg.v_slot)


class TestParseConfig:
    def test_minimal_d2d_resolves_horizon(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL_D2D))
        assert cfg.kind == "d2d"
        assert cfg.t_eta == math.ceil(12.0 / 1.0)
        assert cfg.horizon == cfg.t_eta + 3

    def test_left_out_keys_take_the_dataclass_defaults(self):
        # the parser passes on only the keys a document holds
        cases = [
            (MINIMAL_D2D, {"kind", "start", "goal", "peer", "delta", "v_max_mps"}),
            (MINIMAL_VOYAGE, {"kind", "start", "goal", "v_max_mps", "ocean_field"}),
            ({"kind": "adversary"}, {"kind", "adversary"}),
        ]
        for doc, given in cases:
            cfg = parse_config_doc(doc)
            for f in dataclasses.fields(ScenarioConfig):
                if f.name not in given:
                    assert getattr(cfg, f.name) == f.default, (doc["kind"], f.name)
            assert cfg.goal.speed_mps == PathSpec((0, 0), (0, 0)).speed_mps
        assert parse_config_doc({"kind": "adversary"}).adversary == AdversaryParams()
        assert parse_config_doc(dict(MINIMAL_D2D, d2d={}, gradient_noise={})) == parse_config_doc(
            MINIMAL_D2D
        )
        pert = dict(MINIMAL_VOYAGE["ocean"], perturbation={"sigma_fraction": 0.1})
        assert parse_config_doc(dict(MINIMAL_VOYAGE, ocean=pert)).perturbation == FieldPerturbation(0.1)

    def test_unknown_key_named(self, tmp_path):
        doc = dict(MINIMAL_D2D, velmax=3.0)
        with pytest.raises(SchemaError) as err:
            parse_config(write_config(tmp_path, doc))
        assert "velmax" in str(err.value)

    @pytest.mark.parametrize(
        ("name", "extra", "key", "runs"),
        [
            ("commute.json", {"ocean": {"beta": "nonsense", "field": 5}}, "ocean", "a commute"),
            ("voyage.json", {"peer": [1, 2], "d2d": {"mu": 7}}, "peer", "a voyage"),
            ("voyage.json", {"d2d": {"mu": 7}}, "d2d", "a voyage"),
        ],
    )
    def test_other_kinds_sections_are_refused(self, name, extra, key, runs):
        # such a document parsed, its other kind's sections unread
        doc = json.loads((CONFIGS / name).read_text()) | extra
        with pytest.raises(SchemaError) as err:
            parse_config_doc(doc, CONFIGS)
        assert (err.value.path, err.value.message) == (key, f"{runs} does not read this key")

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
        run_scenario(cfg, benchmark=False)

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

    @pytest.mark.parametrize("case", ["missing", "unreadable", "not-utf8", "malformed"])
    def test_hash_of_a_bad_file_is_the_parsers_schema_error(self, tmp_path, case):
        # a bare FileNotFoundError, IsADirectoryError or JSONDecodeError escaped before
        p = tmp_path / "cfg.json"
        if case == "unreadable":
            p.mkdir()
        elif case == "not-utf8":
            p.write_bytes(json.dumps(MINIMAL_D2D).encode("utf-16"))
        elif case == "malformed":
            p.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError) as hashed:
            config_hash(p)
        with pytest.raises(SchemaError) as parsed:
            parse_config(p)
        assert str(hashed.value) == str(parsed.value)
        assert hashed.value.path == str(p)

    def test_hash_is_format_insensitive(self, tmp_path):
        a = write_config(tmp_path, MINIMAL_D2D, "a.json")
        b = tmp_path / "b.json"
        b.write_text(json.dumps(MINIMAL_D2D, indent=4, sort_keys=True), encoding="utf-8")
        assert config_hash(a) == config_hash(b)


# An out-of-range value for each document key whose value rule a dataclass owns.
OWNED_RULES = [
    ("delta_slots", -1),
    ("v_max_mps", 0.0),
    ("slot_duration_s", -1.0),
    ("goal_m.speed_mps", -1.0),
    ("peer.speed_mps", -1.0),
    ("peer.noise_std_m", -1.0),
    ("d2d.mu", 0.0),
    ("d2d.mu", 1.5),
    ("d2d.utility", "cubic"),
    ("d2d.alpha_min", 0.0),
    ("d2d.margin", 0.5),
    ("d2d.bandwidth_hz", 0.0),
    ("d2d.noise_power", -0.2),
    ("ocean.lambda_strategy", "decreasing"),
    ("ocean.beta", -1.0),
    ("adversary.T", 0),
    ("adversary.W", 0.0),
    ("adversary.policy", "greedy"),
    ("gradient_noise.kind", "laplace"),
    ("gradient_noise.eps0", -1.0),
    ("gradient_noise.decay_q", -1.0),
    ("ocean.perturbation.sigma_fraction", 1.5),
    ("ocean.perturbation.seed", -1),
    ("ocean.field.synthetic.radius_m", 0.0),
    ("ocean.field.synthetic.radius_m", -1.0),
    ("feasible_box_m", {"lo": [1.0, -5.0], "hi": [20.0, 5.0]}),
    ("goal_m", {"from_m": [-1e308, 0.0], "to_m": [1e308, 0.0]}),
    ("goal_m", [1e12, 0.0]),
]


class TestDocumentPaths:
    """A value a dataclass rejects is reported under its document key."""

    @pytest.mark.parametrize(("path", "value"), OWNED_RULES)
    def test_dataclass_error_names_the_document_key(self, path, value):
        if path.startswith("adversary."):
            doc = {"kind": "adversary", "adversary": {}}
        elif path.startswith("ocean.") or path == "slot_duration_s":
            doc = json.loads(json.dumps(MINIMAL_VOYAGE))
            doc["ocean"]["perturbation"] = {"sigma_fraction": 0.05}
            if "synthetic" in path:
                gyre = {"kind": "single_gyre", "center_m": [50.0, 50.0], "strength_mps": 0.3}
                doc["ocean"]["field"]["synthetic"] = gyre
        else:
            doc = dict(MINIMAL_D2D, goal_m={"from_m": [12.0, 0.0], "to_m": [12.0, 0.0]}, d2d={})
            doc = json.loads(json.dumps(doc))
        *parents, key = path.split(".")
        parent = doc
        for name in parents:
            parent = parent.setdefault(name, {})
        parent[key] = value
        with pytest.raises(SchemaError) as err:
            parse_config_doc(doc)
        assert err.value.path == path

    def test_every_renamed_path_is_exercised(self):
        # alpha_p and drag_coefficient need only be finite, which the parser checks first
        renamed = {doc_path for field, doc_path in _DOC_PATHS.items() if field != doc_path}
        assert renamed <= {path for path, _ in OWNED_RULES} | {"d2d.alpha_p", "ocean.drag_coefficient"}


class TestHorizonBound:
    """An episode's horizon is finite and at most MAX_HORIZON slots, checked as the config is built."""

    def test_the_bound_itself_is_accepted(self):
        t_eta = parse_config_doc(MINIMAL_D2D).t_eta
        at_bound = parse_config_doc(dict(MINIMAL_D2D, delta_slots=MAX_HORIZON - t_eta))
        assert at_bound.horizon == MAX_HORIZON
        with pytest.raises(SchemaError) as err:
            parse_config_doc(dict(MINIMAL_D2D, delta_slots=MAX_HORIZON - t_eta + 1))
        assert err.value.path == "goal_m" and f"at most {MAX_HORIZON:,}" in err.value.message

    @pytest.mark.parametrize(
        "changes",
        [
            {"start_m": [-1e308, 0.0], "goal_m": [1e308, 0.0]},
            {"delta_slots": 10**400},
            # v_slot underflows to zero: the run cannot be counted
            {"v_max_mps": 1e-200, "slot_duration_s": 1e-200},
        ],
        ids=["overflowing-run", "huge-delta", "zero-v-slot"],
    )
    def test_a_run_past_the_bound_names_the_goal(self, changes):
        with pytest.raises(SchemaError) as err:
            parse_config_doc(dict(MINIMAL_D2D, **changes))
        assert err.value.path == "goal_m" and "the horizon" in err.value.message

    @pytest.mark.parametrize(
        "changes, path",
        [
            ({"v_max_mps": 1e200}, "v_max_mps"),
            # the walks' first points were NaN, and the horizon rule refused them
            ({"goal_m": {"from_m": [12.0, 0.0], "to_m": [20.0, 0.0], "speed_mps": 1e200}},
             "goal_m.speed_mps"),
            ({"peer": dict(MINIMAL_D2D["peer"], speed_mps=1e200)}, "peer.speed_mps"),
        ],
        ids=["reach", "goal-walk", "peer-walk"],
    )
    def test_an_overflowing_step_names_its_speed(self, changes, path):
        doc = dict(MINIMAL_D2D, slot_duration_s=1e200, **changes)
        with pytest.raises(SchemaError) as err:
            parse_config_doc(doc)
        message = "times slot_duration_s must be finite, got inf"
        assert (err.value.path, err.value.message) == (path, message)


class TestLatticeBound:
    def test_bound_is_on_the_product_of_the_axes(self, monkeypatch):
        monkeypatch.setattr(trajsim.config, "MAX_FIELD_NODES", 2 * 3 * 4)
        field = MINIMAL_VOYAGE["ocean"]["field"]
        grids = {
            "x_grid_m": [0.0, 50.0],
            "y_grid_m": {"min": 0, "max": 100, "n": 3},
            "t_grid_s": {"min": 0, "max": 10, "n": 4},
        }
        doc = dict(MINIMAL_VOYAGE, ocean={"field": dict(field, **grids)})
        assert parse_config_doc(doc).ocean_field.u.shape == (4, 3, 2)
        doc["ocean"]["field"]["t_grid_s"]["n"] = 5
        with pytest.raises(SchemaError) as err:
            parse_config_doc(doc)
        assert err.value.path == "ocean.field.t_grid_s"


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
    return run_scenario(cfg)


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
        rep = run_scenario(cfg, benchmark=False)
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


    def test_summary_reads_back_a_failed_row(self, tmp_path):
        # the param cell stays text, even one that looks like a number, and blanks are None
        path = tmp_path / "summary.csv"
        emit_summary([SweepRow("1.5", 2.0, None)], path)
        (row,) = read_summary(path)
        assert row == {"param": "1.5", "value": 2.0, **dict.fromkeys(SUMMARY_HEADER[2:])}

    @pytest.mark.parametrize(("reader", "kind"), [(read_trace, "trace"), (read_summary, "summary")])
    def test_a_foreign_header_is_named(self, tmp_path, reader, kind):
        path = tmp_path / "other.csv"
        path.write_text("t,x1\r\n1,2\r\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == f"{path}: unexpected {kind} header ['t', 'x1']"

_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e16, 1e-5]
_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
# Every kind of number a trace cell may hold: float, np.float64 and int.
_CELLS = _FLOATS | _FLOATS.map(np.float64) | st.integers(-(10**18), 10**18)


def _synthetic_report(T, goals, cell, gammas=None):
    """An episode of ``T`` slots that visits ``goals``; ``cell()`` gives every number.

    ``gammas``, if given, is the gamma column: one entry per step.
    """

    def pair():
        return cell(), cell()

    traj = [pair() for _ in range(T)]
    records = StepColumns(traj)
    gammas = iter(gammas) if gammas is not None else None
    for _ in range(1, T):
        gamma = next(gammas) if gammas is not None else cell()
        (g0, g1), err, bound, slack = pair(), cell(), cell(), cell()
        row = (gamma, g0, g1, norm((g0, g1)), err, bound, slack)
        for name, value in zip(records.COLUMNS, row):
            getattr(records, name).append(value)
    return EpisodeReport(
        kind="ocean",
        trajectory=traj,
        records=records,
        goals=goals,
        lambdas=[cell() for _ in range(T - 1)],
        alphas=[cell() for _ in range(T - 1)],
        utilities=[cell() for _ in range(T)],
        energy_steps=[cell() for _ in range(T - 1)],
        rate_series=None,
        regret_report=None,
        config=None,
    )


def _copy(value):
    """An equal number that is a distinct object (a small int stays the one object)."""
    return pickle.loads(pickle.dumps(value))


# Gamma cells that are == but write differently, each pair in both orders.
_TWINS = [
    (0.0, -0.0),
    (np.float64(0.0), -0.0),
    (0.0, np.float64(-0.0)),
    (1, 1.0),
    (np.float64(-0.0), 0),
]


def _gamma_column(rng, pool, n):
    """``n`` gamma cells in runs: one object repeated, equal but distinct copies, and twins."""
    column = []
    while len(column) < n:
        k, kind = rng.randint(1, 6), rng.random()
        if kind < 0.4:  # one object, as the commute repeats its kept rate
            column += [rng.choice(pool)] * k
        elif kind < 0.6:  # equal numbers, each its own object
            value = rng.choice(pool)
            column += [_copy(value) for _ in range(k)]
        else:  # twins side by side, a run of each
            a, b = rng.choice(_TWINS)
            if rng.random() < 0.5:
                a, b = b, a
            column += [a] * k + [b] * rng.randint(1, 3)
    return column[:n]


@st.composite
def synthetic_reports(draw):
    """Reports around the writer's edges, with numbers drawn from a small pool."""
    T = draw(
        st.sampled_from([1, 2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
        | st.integers(1, 40)
    )
    pool = draw(st.lists(_CELLS, min_size=1, max_size=12))
    y = draw(_CELLS)
    # Two goals that are == but write differently, and a few others.
    goal_pool = [(0.0, y), (-0.0, y)] + draw(st.lists(st.tuples(_CELLS, _CELLS), max_size=3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    goals = [rng.choice(goal_pool)]
    for _ in range(T - 1):
        goals.append(goals[-1] if rng.random() < 0.6 else rng.choice(goal_pool))
    gammas = _gamma_column(rng, pool, T - 1) if draw(st.booleans()) else None
    return _synthetic_report(T, goals, lambda: rng.choice(pool), gammas)


class TestTraceWriter:
    """The preformatted writer against the csv-module reference, byte for byte."""

    @settings(max_examples=80, deadline=None)
    @given(report=synthetic_reports())
    def test_matches_csv_writer_bytewise(self, tmp_path_factory, report):
        out = tmp_path_factory.mktemp("trace")
        emit_trace(report, out / "new.csv")
        emit_trace_csv(report, out / "ref.csv")
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()

    def test_goals_equal_up_to_zero_sign_are_written_apart(self, tmp_path):
        goals = [(0.0, 1.0), (-0.0, 1.0), (0.0, 1.0), (-0.0, 1.0)]
        assert goals[0] == goals[1]
        values = iter(range(1000))
        report = _synthetic_report(4, goals, lambda: float(next(values)))
        emit_trace(report, tmp_path / "new.csv")
        emit_trace_csv(report, tmp_path / "ref.csv")
        data = (tmp_path / "new.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()
        cells = [line.split(b",")[3:5] for line in data.splitlines()[1:]]
        assert cells == [[b"0.0", b"1.0"], [b"-0.0", b"1.0"]] * 2

    def test_gammas_equal_up_to_zero_sign_or_type_are_written_apart(self, tmp_path):
        minus = np.float64(-0.0)
        gammas = [0.0, -0.0, -0.0, 0.0, minus, minus, 1, 1.0, _copy(2.5), 2.5, np.float64(2.5)]
        assert gammas[0] == gammas[1] and gammas[6] == gammas[7]
        values = iter(range(1000))
        report = _synthetic_report(12, [(0.0, 0.0)] * 12, lambda: float(next(values)), gammas)
        emit_trace(report, tmp_path / "new.csv")
        emit_trace_csv(report, tmp_path / "ref.csv")
        data = (tmp_path / "new.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()
        cells = [line.split(b",")[7] for line in data.splitlines()[1:-1]]
        want = ["0.0", "-0.0", "-0.0", "0.0", "-0.0", "-0.0", "1", "1.0", "2.5", "2.5", "2.5"]
        assert cells == [c.encode() for c in want]


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
