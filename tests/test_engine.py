import io
import math

import pytest

from cyclecluster import engine
from cyclecluster.engine import (
    GAP_INFINITE,
    SEPARATOR_ORDER,
    BoundEvent,
    SolverConfig,
    compute_gap,
    dual_integral,
    primal_integral,
    solve,
)
from cyclecluster.formulation import build_cc
from cyclecluster.generator import generate
from cyclecluster.instance import Instance, objective
from cyclecluster.lp import LpSolution, lp_relaxation, solve_lp
from cyclecluster.oracle import enumerate_optimal
from conftest import random_instance

FAST = SolverConfig(time_limit_s=60)


class TestComputeGap:
    def test_zero_gap(self):
        assert compute_gap(0.4, 0.4) == 0.0

    def test_formula_value(self):
        assert compute_gap(1.0, 2.0) == pytest.approx(100.0 * 1.0 / (1.0 + 1e-6), abs=1e-9)

    def test_exceeds_hundred_percent(self):
        gap = compute_gap(0.25, 1.0)
        assert gap == pytest.approx(100.0 * 0.75 / (0.25 + 1e-6), abs=1e-9)
        assert gap == pytest.approx(300.0, abs=1e-2)
        assert gap > 100.0

    def test_sentinels(self):
        assert compute_gap(-math.inf, 1.0) == GAP_INFINITE
        assert compute_gap(-1.0, 1.0) == GAP_INFINITE
        assert compute_gap(0.0, 0.0) == 0.0


class TestIntegrals:
    def test_reference_from_start_is_zero(self):
        hist = [BoundEvent(0.0, 0, 1.0, 2.0, "incumbent")]
        assert primal_integral(hist, 10.0, 1.0) == 0.0

    def test_no_incumbent_is_full_area(self):
        assert primal_integral([], 7.5, 1.0) == pytest.approx(7.5)

    def test_step_improvement_half_area(self):
        hist = [
            BoundEvent(0.0, 0, -math.inf, math.inf, "start"),
            BoundEvent(5.0, 0, 1.0, math.inf, "incumbent"),
        ]
        assert primal_integral(hist, 10.0, 1.0) == pytest.approx(5.0)

    def test_dual_integral_analogous(self):
        hist = [
            BoundEvent(0.0, 0, -math.inf, math.inf, "start"),
            BoundEvent(2.0, 0, -math.inf, 1.0, "dual"),
        ]
        assert dual_integral(hist, 4.0, 1.0) == pytest.approx(2.0)

    def test_integrals_do_not_depend_on_weight_scale(self):
        # an absolute "equal" tolerance once read every distance as 0 at Q x 1e-9
        def history(s):
            return [
                BoundEvent(0.0, 0, -math.inf, math.inf, "start"),
                BoundEvent(2.0, 0, -math.inf, 4.0 * s, "dual"),
                BoundEvent(5.0, 1, 0.5 * s, 4.0 * s, "incumbent"),
                BoundEvent(8.0, 3, 0.5 * s, 1.25 * s, "dual"),
            ]

        # primal: 5 s at distance 1, then 5 s at 0.5; dual: 2 s at 1, 6 s at 0.75, 2 s at 0.2
        primal, dual = primal_integral(history(1.0), 10.0, 1.0), dual_integral(history(1.0), 10.0, 1.0)
        assert primal == pytest.approx(7.5, abs=1e-12)
        assert dual == pytest.approx(6.9, abs=1e-12)
        for scale in (1e-9, 1e9):
            assert primal_integral(history(scale), 10.0, scale) == pytest.approx(primal, abs=1e-12)
            assert dual_integral(history(scale), 10.0, scale) == pytest.approx(dual, abs=1e-12)

    def test_zero_reference(self):
        assert primal_integral([BoundEvent(0.0, 0, 0.0, 0.0, "final")], 3.0, 0.0) == 0.0
        assert primal_integral([BoundEvent(0.0, 0, -1e-12, 0.0, "final")], 3.0, 0.0) == 3.0


class TestSolve:
    def test_t1_all_features(self, t1):
        res = solve(t1, FAST)
        assert res.status == "optimal"
        assert res.primal_bound == pytest.approx(0.4, abs=1e-9)
        assert res.dual_bound == pytest.approx(0.4, abs=1e-9)
        assert res.gap_percent == 0.0
        assert res.best_clustering is not None
        assert objective(t1, res.best_clustering) == pytest.approx(res.primal_bound, abs=1e-12)

    def test_root_only_no_features(self, t1):
        cfg = SolverConfig(time_limit_s=60, node_limit=1, separators=(), heuristics=())
        res = solve(t1, cfg)
        assert res.status in ("node_limit", "optimal")
        assert res.nodes_processed == 1
        root_lp = solve_lp(lp_relaxation(build_cc(t1))).objective_value
        assert res.dual_bound == pytest.approx(root_lp, abs=1e-5)
        assert res.best_clustering is None  # uniform root LP is fractional
        assert res.gap_percent == GAP_INFINITE

    def test_matches_oracle_on_small_instances(self):
        for seed in range(8):
            n = 6 + seed % 3
            m = 3 + seed % 2
            inst = random_instance(n, m, seed=seed, alpha=1 / 1.001)
            res = solve(inst, FAST)
            _, best = enumerate_optimal(inst)
            assert res.status == "optimal"
            assert res.primal_bound == pytest.approx(best, abs=1e-7)

    def test_matches_oracle_without_heuristics(self):
        # incumbents must then come from integral node LPs
        inst = random_instance(6, 3, seed=2, alpha=0.5)
        res = solve(inst, SolverConfig(time_limit_s=60, heuristics=()))
        _, best = enumerate_optimal(inst)
        assert res.status == "optimal"
        assert res.primal_bound == pytest.approx(best, abs=1e-7)
        assert all(v["runs"] == 0 for v in res.heuristic_stats.values())

    def test_matches_oracle_without_separators(self):
        inst = random_instance(6, 3, seed=3, alpha=0.5)
        res = solve(inst, SolverConfig(time_limit_s=60, separators=()))
        _, best = enumerate_optimal(inst)
        assert res.status == "optimal"
        assert res.primal_bound == pytest.approx(best, abs=1e-7)
        assert res.cut_counts == {}

    def test_bound_sandwich_in_history(self):
        inst = random_instance(7, 4, seed=5, alpha=1 / 1.001)
        res = solve(inst, FAST)
        for ev in res.bound_history:
            assert ev.primal <= ev.dual + 1e-6

    def test_root_cut_loop_monotone(self):
        inst = random_instance(8, 3, seed=7, alpha=1 / 1.001)
        res = solve(inst, FAST)
        vals = res.root_lp_values
        assert len(vals) >= 2  # cuts were separated at the root
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-7

    def test_determinism(self):
        inst = random_instance(8, 4, seed=11, alpha=1 / 1.001)
        cfg = SolverConfig(time_limit_s=120, rng_seed=42)
        a = solve(inst, cfg)
        b = solve(inst, cfg)
        assert a.nodes_processed == b.nodes_processed
        assert a.cut_counts == b.cut_counts
        assert a.primal_bound == b.primal_bound
        assert a.dual_bound == b.dual_bound
        assert a.best_clustering == b.best_clustering
        assert [(e.nodes, e.primal, e.event) for e in a.bound_history] == [
            (e.nodes, e.primal, e.event) for e in b.bound_history
        ]

    def test_lp_counters_repeat(self):
        inst = random_instance(8, 4, seed=11, alpha=1 / 1.001)
        cfg = SolverConfig(time_limit_s=120, rng_seed=42)
        a = solve(inst, cfg)
        b = solve(inst, cfg)
        assert a.nodes_processed > 1
        assert (a.lp_solves, a.simplex_iterations) == (b.lp_solves, b.simplex_iterations)
        assert a.lp_solves >= a.nodes_processed
        assert a.simplex_iterations > 0

    @pytest.mark.parametrize("limit", [2.0, 5.0])
    def test_time_limit_reaches_every_lp(self, limit):
        # the root cut loop of these instances alone outlasts both limits
        for k in range(4):
            inst, _ = generate(30, 5, rng_seed=[99, k])
            res = solve(inst, SolverConfig(time_limit_s=limit))
            assert res.status == "time_limit"
            assert res.best_clustering is not None
            # no instance closes in time, so a dual bound down at the primal
            # would mean a node cut short by the limit was dropped
            assert res.dual_bound > res.primal_bound
            assert res.wall_time_s <= limit + 0.5

    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e3, 1e9])
    def test_oracle_equality_at_any_weight_scale(self, scale):
        # absolute tolerances once pruned every node at small scale and
        # reported a false optimum
        for k in range(10):
            n, m = 6 + k % 4, 3 + k % 2
            base, _ = generate(n, m, rng_seed=[1234, k])
            inst = Instance(n=n, m=m, alpha=base.alpha, Q=base.Q * scale)
            _, best = enumerate_optimal(inst)
            for cfg in (FAST, SolverConfig(time_limit_s=60, separators=(), heuristics=())):
                res = solve(inst, cfg)
                assert res.status == "optimal"
                assert abs(res.primal_bound - best) <= 1e-7 * scale, f"instance {k}: {res.primal_bound} vs {best}"
                assert objective(inst, res.best_clustering) == pytest.approx(res.primal_bound, rel=1e-12)

    @pytest.mark.parametrize("separators", [SEPARATOR_ORDER, ()], ids=["root_cut_round", "child_node"])
    def test_lp_error_keeps_incumbent(self, monkeypatch, separators):
        # with separators the 3rd LP is a root cut round, without them a child node's
        inst = random_instance(8, 4, seed=11, alpha=1 / 1.001)
        calls = []

        def third_fails(lp, time_limit=None):
            calls.append(lp)
            if len(calls) == 3:
                return LpSolution("error", None, None, 0)
            return solve_lp(lp, time_limit)

        monkeypatch.setattr(engine, "solve_lp", third_fails)
        # sparsify is left out: its nested solve would take some of the calls
        cfg = SolverConfig(time_limit_s=60, separators=separators, heuristics=("greedy", "rounding", "exchange"))
        res = solve(inst, cfg)
        _, best = enumerate_optimal(inst)
        assert len(calls) == 3
        assert res.status == "lp_error"
        assert res.best_clustering is not None
        assert objective(inst, res.best_clustering) == pytest.approx(res.primal_bound, rel=1e-12)
        tol = 1e-12 * abs(best)  # rounding between the oracle's objective and the solver's
        assert res.primal_bound <= best + tol
        assert best <= res.dual_bound + tol
        assert res.bound_history[-1].event == "final"

    def test_node_limit_status(self):
        inst = random_instance(9, 4, seed=13, alpha=1 / 1.001)
        res = solve(inst, SolverConfig(time_limit_s=60, node_limit=2, separators=()))
        assert res.status == "node_limit"
        assert res.nodes_processed == 2
        assert res.dual_bound >= res.primal_bound - 1e-9

    def test_symmetry_break_same_value(self):
        for seed in (0, 4):
            inst = random_instance(7, 3, seed=seed, alpha=1 / 1.001)
            plain = solve(inst, FAST)
            broken = solve(inst, SolverConfig(time_limit_s=60, symmetry_break=True))
            assert plain.primal_bound == pytest.approx(broken.primal_bound, abs=1e-7)

    def test_log_stream_events(self, t1):
        buf = io.StringIO()
        res = solve(t1, FAST, log_stream=buf)
        lines = [ln for ln in buf.getvalue().splitlines() if ln]
        assert len(lines) == len(res.bound_history)
        t, nodes, primal, dual, kind = lines[-1].split()
        assert kind == "final"
        assert float(primal) == pytest.approx(res.primal_bound)
        assert int(nodes) == res.nodes_processed
