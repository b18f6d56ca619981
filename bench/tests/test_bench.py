"""Tests of the benchmark's own machinery: statistics, spans, checks, inputs.

Run from the root of a checkout with ``python3 -m pytest bench/tests``.
"""

import json
from pathlib import Path

import pytest

import checks
import replay
import workloads
from spans import Recorder, Span, layer_of, self_times_ns, tail
from trajsim import emit_trace, parse_config, run_scenario


class TestTail:
    def test_leaves_ten_samples_beyond(self):
        values = list(range(1, 31))  # 30 samples
        value, pct, n = tail(reversed(values))
        assert (value, n) == (20, 30)
        assert sum(v > value for v in values) == 10
        assert pct == pytest.approx(100.0 * 20 / 30)

    def test_smallest_sample_count(self):
        value, pct, n = tail(range(11))
        assert (value, pct, n) == (0, 100.0 / 11, 11)

    def test_needs_more_than_ten_samples(self):
        with pytest.raises(ValueError):
            tail(range(10))


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            Span("cli.op", 0, 100, None, 1),
            Span("metrics.solve", 10, 40, 0, 1),
            Span("inner", 20, 30, 1, 1),
            Span("traces.emit_trace", 50, 90, 0, 1),
        ]
        assert self_times_ns(spans) == [30, 20, 10, 40]

    def test_overlapping_children_are_counted_once(self):
        spans = [
            Span("cli.op", 0, 100, None, 1),
            Span("a", 10, 60, 0, 1),
            Span("b", 40, 120, 0, 1),  # runs past its parent's end
        ]
        assert self_times_ns(spans)[0] == 10

    def test_recorder_nests_by_with_blocks(self):
        rec = Recorder()
        with rec.span("cli.op", 7):
            with rec.span("scenarios.episode", 7):
                pass
            with rec.span("traces.emit_trace", 7):
                pass
        assert [s.parent for s in rec.spans] == [None, 0, 0]
        assert {s.op for s in rec.spans} == {7}
        root, a, b = rec.spans
        assert root.start_ns <= a.start_ns <= a.end_ns <= b.start_ns <= b.end_ns <= root.end_ns
        assert self_times_ns(rec.spans)[0] == root.duration_ns - a.duration_ns - b.duration_ns

    def test_layers(self):
        assert layer_of("metrics.solve") == "metrics.solve"
        assert layer_of("metrics.g_t") == "metrics.g_t"
        assert layer_of("traces.emit_summary") == "traces"
        assert layer_of("config.hash") == "config"
        assert layer_of("cli.op") == "cli"


def _small_voyage(tmp_path):
    (doc,) = workloads.voyage_sweep(3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = parse_config(path)
    trace = tmp_path / "trace.csv"
    emit_trace(run_scenario(cfg, benchmark=False), trace)
    return cfg, trace


class TestOutputChecks:
    def test_clean_trace_passes(self, tmp_path):
        cfg, trace = _small_voyage(tmp_path)
        problems, online = checks.check_trace(trace, cfg.horizon)
        assert problems == []
        assert online < 0.0

    def test_rejects_slack_above_tolerance(self, tmp_path):
        cfg, trace = _small_voyage(tmp_path)
        lines = trace.read_text(encoding="utf-8").splitlines()
        cells = lines[5].split(",")
        cells[-1] = repr(10 * checks.SLACK_TOL)
        lines[5] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        problems, _ = checks.check_trace(trace, cfg.horizon)
        assert len(problems) == 1 and "slack" in problems[0]

    def test_rejects_missing_rows(self, tmp_path):
        cfg, trace = _small_voyage(tmp_path)
        lines = trace.read_text(encoding="utf-8").splitlines()
        trace.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        problems, _ = checks.check_trace(trace, cfg.horizon)
        assert problems and "rows" in problems[0]

    def test_offline_below_online_is_rejected(self):
        assert checks.check_regret(0.0, -5.0, "x") == []
        assert checks.check_regret(-1e-12, -5.0, "x") == []
        assert checks.check_regret(-1e-3, -5.0, "x")
        assert checks.check_regret(None, -5.0, "x")

    def test_regret_report_needs_convergence(self, tmp_path):
        path = tmp_path / "regret_report.json"
        doc = {"solver_converged": False, "offline_utility_total": -1.0, "online_utility_total": -2.0}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert checks.check_regret_report(path)
        doc["solver_converged"] = True
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert checks.check_regret_report(path) == []


class TestGenerators:
    @pytest.mark.parametrize("name", workloads.WORKLOADS)
    def test_strict_json_same_seed_same_input(self, name, tmp_path):
        gen = workloads.GENERATORS[name]
        text = json.dumps(gen(5), allow_nan=False)
        assert text == json.dumps(gen(5))
        assert text != json.dumps(gen(6))
        for k, doc in enumerate(gen(5)):
            path = tmp_path / f"cfg{k}.json"
            path.write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")
            parse_config(path)

    @pytest.mark.parametrize("name", workloads.WORKLOADS)
    def test_seed_keeps_the_horizon(self, name, tmp_path):
        horizons = set()
        for seed in (1, 2, workloads.HELD_OUT_SEED):
            for k, doc in enumerate(workloads.GENERATORS[name](seed)):
                path = tmp_path / f"{seed}-{k}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                horizons.add(parse_config(path).horizon)
        assert len(horizons) == 1

    def test_commute_sets_alpha_min(self):
        for gen in (workloads.commute_regret, workloads.commute_huber):
            assert all(doc["d2d"]["alpha_min"] == 0.05 for doc in gen(1))

    def test_commute_seed_draws_the_noise(self):
        """Every commute instance, held-out seed included, has noise streams of its own."""
        for gen in (workloads.commute_regret, workloads.commute_huber):
            streams = [
                (doc["seed"], doc["gradient_noise"]["seed"])
                for seed in (1, 2, workloads.HELD_OUT_SEED)
                for doc in gen(seed)
            ]
            assert len(set(streams)) == len(streams) == 3 * workloads.COMMUTE_INSTANCES


def test_counting_restores_the_program(tmp_path):
    before = {(owner, attr): owner.__dict__[attr]
              for targets in replay.SPIED.values() for owner, attr in targets}
    cfg, _ = _small_voyage(tmp_path)
    counts = {}
    with replay.counting(counts):
        run_scenario(cfg, benchmark=False)
    assert counts["engine.step"] == cfg.horizon - 1
    assert counts["field.sample"] == 2 * (cfg.horizon - 1)
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original


def test_benchmark_json_names_what_the_runs_report():
    import layers
    import run

    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
