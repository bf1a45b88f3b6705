import io
import json
import math
import re
from pathlib import Path

import pytest

from cyclecluster.bench import (
    BenchSetting,
    aggregate,
    bound_events,
    format_table,
    load_records,
    parse_heuristic_spec,
    parse_separator_spec,
    read_event_log,
    run_bench,
    shifted_geomean,
    summaries_to_json,
    write_event_log,
)
from cyclecluster.engine import BoundEvent, SolverConfig, SolveResult, solve
from conftest import random_instance, t1_instance


class TestShiftedGeomean:
    def test_constant_sequence(self):
        assert shifted_geomean([7.0, 7.0, 7.0], 10.0) == pytest.approx(7.0, abs=1e-12)

    def test_worked_example(self):
        # {0, 990} with shift 10: exp((ln 10 + ln 1000)/2) - 10 = 100 - 10 = 90
        assert shifted_geomean([0.0, 990.0], 10.0) == pytest.approx(90.0, abs=1e-9)

    def test_matches_formula(self):
        vals = [3.0, 14.0, 200.0]
        expected = math.exp(sum(math.log(v + 100.0) for v in vals) / 3) - 100.0
        assert shifted_geomean(vals, 100.0) == pytest.approx(expected, abs=1e-12)


class TestSettingParsing:
    def test_specs(self):
        assert parse_separator_spec("none") == ()
        assert parse_separator_spec("all") == ("triangle", "subtour_path", "partition")
        assert parse_separator_spec("subtour") == ("subtour_path",)
        assert parse_separator_spec("triangle,partition") == ("triangle", "partition")
        assert parse_heuristic_spec("greedy+exchange") == ("greedy", "exchange")
        with pytest.raises(ValueError, match=re.escape("unknown separator 'bogus' (use triangle, subtour, subtour_path, partition, none or all)")):
            parse_separator_spec("triangle,bogus")
        with pytest.raises(ValueError, match=re.escape("unknown heuristic 'bogus' (use greedy, sparsify, rounding, exchange, none or all)")):
            parse_heuristic_spec("greedy+bogus")

    def test_setting_token(self):
        s = BenchSetting.parse("subtour/all")
        assert s.separators == ("subtour_path",)
        assert s.heuristics == ("greedy", "sparsify", "rounding", "exchange")


def _report(instance, setting, history, **fields):
    """The run report of a hand-built result, as `run_bench` returns it."""
    res = SolveResult(best_clustering=None, bound_history=history, heuristic_stats={}, **fields)
    return {"setting": setting, **res.report(instance, t1_instance(), SolverConfig())}


def _hand_built_records(tmp_path: Path):
    run_dir = tmp_path / "none_all"
    run_dir.mkdir(parents=True)
    reports = [
        # instance A: incumbent arrives halfway, dual bound never improves
        _report(
            "a", "none/all",
            [BoundEvent(0.0, 0, -math.inf, math.inf, "start"), BoundEvent(5.0, 0, 1.0, math.inf, "incumbent:greedy")],
            status="time_limit", primal_bound=1.0, dual_bound=math.inf, gap_percent=1e20,
            nodes_processed=0, wall_time_s=10.0, cut_counts={},
        ),
        # instance B: solved instantly at the reference value
        _report(
            "b", "none/all", [BoundEvent(0.0, 0, 2.0, 2.0, "incumbent:greedy")],
            status="optimal", primal_bound=2.0, dual_bound=2.0, gap_percent=0.0,
            nodes_processed=990, wall_time_s=990.0, cut_counts={},
        ),
    ]
    for rep in reports:
        (run_dir / f"{rep['instance']}.json").write_text(json.dumps(rep, indent=2))
    return tmp_path


class TestAggregation:
    def test_hand_built_logs_match_hand_computed_geomeans(self, tmp_path):
        records = load_records(_hand_built_records(tmp_path))
        assert len(records) == 2
        assert records[0]["gap_percent"] == "inf" and records[0]["dual_bound"] is None
        assert bound_events(records[0])[0] == BoundEvent(0.0, 0, -math.inf, math.inf, "start")
        summary = aggregate(records)[0]
        # times {10, 990} with shift 10
        assert summary.sgm_time_s == pytest.approx(math.exp((math.log(20) + math.log(1000)) / 2) - 10, abs=1e-9)
        # nodes {0, 990} with shift 100
        assert summary.sgm_nodes == pytest.approx(math.exp((math.log(100) + math.log(1090)) / 2) - 100, abs=1e-9)
        # primal integrals: a spends 5 s at distance 1, b none; shift 1000
        assert summary.sgm_primal_integral == pytest.approx(
            math.exp((math.log(1005) + math.log(1000)) / 2) - 1000, abs=1e-9
        )
        # dual integrals: a is at distance 1 throughout (10 s), b at 0
        assert summary.sgm_dual_integral == pytest.approx(
            math.exp((math.log(1010) + math.log(1000)) / 2) - 1000, abs=1e-9
        )
        assert summary.solved == 1
        assert summary.mean_gap_percent == pytest.approx(0.0)
        assert summary.infinite_gaps == 1

    def test_event_log_roundtrip(self, tmp_path):
        events = [
            BoundEvent(0.0, 0, -math.inf, math.inf, "start"),
            BoundEvent(1.5, 3, 0.25, 1.0, "incumbent:rounding"),
        ]
        path = tmp_path / "x.log"
        write_event_log(path, events)
        back = read_event_log(path)
        assert back == events

    def test_solve_log_stream_reads_back_as_bound_history(self, tmp_path):
        buf = io.StringIO()
        res = solve(random_instance(7, 3, seed=5, alpha=1 / 1.001), SolverConfig(time_limit_s=30.0), log_stream=buf)
        path = tmp_path / "solve.log"
        path.write_text(buf.getvalue())
        assert read_event_log(path) == res.bound_history
        assert res.bound_history[0].primal == -math.inf and res.bound_history[0].dual == math.inf
        write_event_log(tmp_path / "again.log", res.bound_history)
        assert (tmp_path / "again.log").read_text() == buf.getvalue()

    def test_json_roundtrip(self, tmp_path):
        events = [BoundEvent(0.0, 0, -math.inf, math.inf, "start"), BoundEvent(1.25, 17, 0.5, 0.5, "final")]
        rep = _report(
            "x", "all/all", events, status="optimal", primal_bound=0.5, dual_bound=0.5, gap_percent=0.0,
            nodes_processed=17, wall_time_s=1.25, cut_counts={"Subtour": 3},
        )
        path = tmp_path / "x.json"
        path.write_text(json.dumps(rep, indent=2))
        parsed = json.loads(path.read_text())
        assert set(parsed) >= {"instance", "setting", "status", "primal_bound", "dual_bound",
                               "gap_percent", "nodes_processed", "wall_time_s", "cut_counts"}
        assert parsed == rep  # a report holds JSON values only
        assert parsed["bound_history"] == [[0.0, 0, None, None, "start"], [1.25, 17, 0.5, 0.5, "final"]]
        assert bound_events(parsed) == events


class TestRunBench:
    def test_tiny_matrix_runs_and_persists(self, tmp_path):
        instances = [(f"r{seed}", random_instance(6, 3, seed=seed, alpha=1 / 1.001)) for seed in (0, 1)]
        settings = [BenchSetting.parse("none/all"), BenchSetting.parse("all/all")]
        cfg = SolverConfig(time_limit_s=20.0)
        records = run_bench(instances, settings, cfg, out_dir=tmp_path)
        assert len(records) == 4
        assert all(r["status"] == "optimal" for r in records)
        vals = {}
        for r in records:
            vals.setdefault(r["instance"], set()).add(round(r["primal_bound"], 9))
        assert all(len(v) == 1 for v in vals.values())  # settings agree on the optimum
        reloaded = load_records(tmp_path)
        assert len(reloaded) == 4
        assert {r["instance"] for r in reloaded} == {"r0", "r1"}
        key = lambda r: (r["setting"], r["instance"])  # noqa: E731
        assert sorted(reloaded, key=key) == sorted(records, key=key)
        assert len(list(tmp_path.glob("*/*.log"))) == 4
        table = format_table(aggregate(records))
        assert "none/all" in table and "all/all" in table
        assert json.loads(summaries_to_json(aggregate(records)))

    def test_aggregate_from_disk_is_exact(self, tmp_path):
        instances = [(f"d{seed}", random_instance(6, 3, seed=seed, alpha=1 / 1.001)) for seed in (2, 3)]
        settings = [BenchSetting.parse("none/none"), BenchSetting.parse("all/all")]
        in_memory = aggregate(run_bench(instances, settings, SolverConfig(time_limit_s=20.0), out_dir=tmp_path))
        from_disk = aggregate(load_records(tmp_path))
        assert {s.setting: s for s in from_disk} == {s.setting: s for s in in_memory}  # integrals included
        assert all(math.isfinite(s.mean_gap_percent) for s in in_memory)  # no NaN, which == would not match
        assert in_memory[0].sgm_primal_integral > 0  # none/none finds its incumbent after the root LP

    def test_rerun_reproduces_node_and_cut_counts(self, tmp_path):
        instances = [("r", random_instance(7, 3, seed=5, alpha=1 / 1.001))]
        settings = [BenchSetting.parse("all/all")]
        cfg = SolverConfig(time_limit_s=30.0, rng_seed=1)
        a = run_bench(instances, settings, cfg)
        b = run_bench(instances, settings, cfg)
        assert a[0]["nodes_processed"] == b[0]["nodes_processed"]
        assert a[0]["cut_counts"] == b[0]["cut_counts"]
        assert a[0]["primal_bound"] == b[0]["primal_bound"]


class TestWorkers:
    def test_worker_pool_matches_sequential(self, tmp_path):
        instances = [(f"w{seed}", random_instance(6, 3, seed=seed, alpha=1 / 1.001)) for seed in (3, 4)]
        settings = [BenchSetting.parse("all/all")]
        cfg = SolverConfig(time_limit_s=20.0)
        seq = run_bench(instances, settings, cfg)
        par = run_bench(instances, settings, cfg, workers=2)
        fixed = ("instance", "nodes_processed", "primal_bound")
        assert [[r[k] for k in fixed] for r in seq] == [[r[k] for k in fixed] for r in par]
