import io
import json
import math
from pathlib import Path

import pytest

from cyclecluster.bench import (
    BenchSetting,
    RunRecord,
    aggregate,
    format_table,
    load_records,
    parse_heuristic_spec,
    parse_separator_spec,
    read_event_log,
    run_bench,
    shifted_geomean,
    summaries_to_json,
    write_event_log,
    write_run_json,
)
from cyclecluster.engine import BoundEvent, SolverConfig, solve
from conftest import random_instance


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
        with pytest.raises(ValueError):
            parse_separator_spec("bogus")

    def test_setting_token(self):
        s = BenchSetting.parse("subtour/all")
        assert s.separators == ("subtour_path",)
        assert s.heuristics == ("greedy", "sparsify", "rounding", "exchange")


def _hand_built_records(tmp_path: Path):
    run_dir = tmp_path / "none_all"
    run_dir.mkdir(parents=True)
    # instance A: incumbent arrives halfway, dual bound never improves
    (run_dir / "a.log").write_text("0.000000 0 -inf inf start\n5.000000 0 1.0 inf incumbent:greedy\n")
    write_run_json(
        run_dir / "a.json",
        RunRecord(instance="a", setting="none/all", status="time_limit", primal=1.0, dual=math.inf,
                  gap_percent=1e20, nodes=0, time_s=10.0),
    )
    # instance B: solved instantly at the reference value
    (run_dir / "b.log").write_text("0.000000 0 2.0 2.0 incumbent:greedy\n")
    write_run_json(
        run_dir / "b.json",
        RunRecord(instance="b", setting="none/all", status="optimal", primal=2.0, dual=2.0,
                  gap_percent=0.0, nodes=990, time_s=990.0),
    )
    return tmp_path


class TestAggregation:
    def test_hand_built_logs_match_hand_computed_geomeans(self, tmp_path):
        records = load_records(_hand_built_records(tmp_path))
        assert len(records) == 2
        summary = aggregate(records)[0]
        # times {10, 990} with shift 10
        assert summary.sgm_time == pytest.approx(math.exp((math.log(20) + math.log(1000)) / 2) - 10, abs=1e-9)
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
        assert summary.mean_gap == pytest.approx(0.0)
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
        rec = RunRecord(instance="x", setting="all/all", status="optimal", primal=0.5, dual=0.5,
                        gap_percent=0.0, nodes=17, time_s=1.25, cut_counts={"Subtour": 3})
        path = tmp_path / "x.json"
        write_run_json(path, rec)
        parsed = json.loads(path.read_text())
        assert set(parsed) >= {"instance", "setting", "status", "primal_bound", "dual_bound",
                               "gap_percent", "nodes_processed", "wall_time_s", "cut_counts"}


class TestRunBench:
    def test_tiny_matrix_runs_and_persists(self, tmp_path):
        instances = [(f"r{seed}", random_instance(6, 3, seed=seed, alpha=1 / 1.001)) for seed in (0, 1)]
        settings = [BenchSetting.parse("none/all"), BenchSetting.parse("all/all")]
        cfg = SolverConfig(time_limit_s=20.0)
        records = run_bench(instances, settings, cfg, out_dir=tmp_path)
        assert len(records) == 4
        assert all(r.solved for r in records)
        vals = {}
        for r in records:
            vals.setdefault(r.instance, set()).add(round(r.primal, 9))
        assert all(len(v) == 1 for v in vals.values())  # settings agree on the optimum
        reloaded = load_records(tmp_path)
        assert len(reloaded) == 4
        assert {r.instance for r in reloaded} == {"r0", "r1"}
        table = format_table(aggregate(records))
        assert "none/all" in table and "all/all" in table
        assert json.loads(summaries_to_json(aggregate(records)))

    def test_rerun_reproduces_node_and_cut_counts(self, tmp_path):
        instances = [("r", random_instance(7, 3, seed=5, alpha=1 / 1.001))]
        settings = [BenchSetting.parse("all/all")]
        cfg = SolverConfig(time_limit_s=30.0, rng_seed=1)
        a = run_bench(instances, settings, cfg)
        b = run_bench(instances, settings, cfg)
        assert a[0].nodes == b[0].nodes
        assert a[0].cut_counts == b[0].cut_counts
        assert a[0].primal == b[0].primal


class TestWorkers:
    def test_worker_pool_matches_sequential(self, tmp_path):
        instances = [(f"w{seed}", random_instance(6, 3, seed=seed, alpha=1 / 1.001)) for seed in (3, 4)]
        settings = [BenchSetting.parse("all/all")]
        cfg = SolverConfig(time_limit_s=20.0)
        seq = run_bench(instances, settings, cfg)
        par = run_bench(instances, settings, cfg, workers=2)
        assert [(r.instance, r.nodes, r.primal) for r in seq] == [(r.instance, r.nodes, r.primal) for r in par]
