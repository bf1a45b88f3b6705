import io
import logging
import math

import numpy as np
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

    def test_root_only_no_features(self):
        # t1's root LP is integral once vertex 0 is pinned; this one's is not
        inst = random_instance(4, 3, seed=0)
        cfg = SolverConfig(time_limit_s=60, node_limit=1, separators=(), heuristics=())
        res = solve(inst, cfg)
        assert res.status in ("node_limit", "optimal")
        assert res.nodes_processed == 1
        model = build_cc(inst)
        model.lo[model.space.x(0, 0)] = 1.0
        root_lp = solve_lp(lp_relaxation(model)).objective_value
        assert res.dual_bound == pytest.approx(root_lp, abs=1e-5)
        assert res.best_clustering is None  # the root LP is fractional
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
        # the second instance has m >= 5, so every separator runs, and slack
        # rows leave its root LP; deleting only basic rows keeps the optimum
        aging, _ = generate(12, 5, forward_strength=0.25, rng_seed=[5, 12, 5, 5])
        for inst, cfg in ((random_instance(8, 3, seed=7, alpha=1 / 1.001), FAST),
                          (aging, SolverConfig(time_limit_s=60, node_limit=1))):
            res = solve(inst, cfg)
            vals = res.root_lp_values
            assert len(vals) >= 2  # cuts were separated at the root
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-7
        assert res.lp_rows_deleted > 0

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
        # the root cut loop of these weak-signal instances alone outlasts both
        # limits (the default-signal ones close in about 5 s with vertex 0 pinned)
        for k in range(4):
            inst, _ = generate(30, 5, forward_strength=0.25, rng_seed=[99, k])
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
        # the pinned vertex 0 is moved into each cluster of the optimum in turn
        for seed in (0, 4):
            inst = random_instance(7, 3, seed=seed, alpha=1 / 1.001)
            best_clustering, best = enumerate_optimal(inst)
            for members in best_clustering.clusters():
                v = members[0]
                perm = list(range(inst.n))
                perm[0], perm[v] = v, 0  # new vertex k is old vertex perm[k]
                relabeled = Instance(n=inst.n, m=inst.m, alpha=inst.alpha, Q=inst.Q[np.ix_(perm, perm)])
                res = solve(relabeled, FAST)
                assert res.status == "optimal"
                assert abs(res.primal_bound - best) <= 1e-7
                assert objective(relabeled, res.best_clustering) == pytest.approx(res.primal_bound, rel=1e-12)

    @pytest.mark.parametrize("kind", ["n_equals_m", "vertex0_weightless", "raw_counts"])
    def test_pin_edge_cases(self, kind):
        for k in range(6):
            n, m = 6 + k % 3, 3 + k % 2
            if kind == "n_equals_m":
                n = m = 3 + k % 4  # every cluster a singleton
                inst = random_instance(n, m, seed=k, alpha=1 / 1.001)
            elif kind == "vertex0_weightless":
                base = random_instance(n, m, seed=k, alpha=1 / 1.001, density=0.5)
                q = base.Q.copy()
                q[0, :] = q[:, 0] = 0.0  # vertex 0 gets no y/z columns
                inst = Instance(n=n, m=m, alpha=base.alpha, Q=q)
                assert (build_cc(inst).space.ycol[0] < 0).all()
            else:
                base, _ = generate(n, m, rng_seed=[1234, k])
                inst = Instance(n=n, m=m, alpha=base.alpha, Q=np.round(base.Q * 1e6))
            _, best = enumerate_optimal(inst)
            res = solve(inst, FAST)
            assert res.status == "optimal", f"{kind} {k}"
            assert abs(res.primal_bound - best) <= 1e-7 * max(1.0, abs(best)), f"{kind} {k}: {res.primal_bound} vs {best}"
            assert objective(inst, res.best_clustering) == pytest.approx(res.primal_bound, rel=1e-12)

    def test_progress_logging(self, caplog, monkeypatch):
        inst = random_instance(8, 4, seed=11, alpha=1 / 1.001)
        cfg = SolverConfig(time_limit_s=120, heuristics=())  # no sparsify sub-solve
        caplog.set_level(logging.WARNING, logger="cyclecluster.engine")
        solve(inst, cfg)
        assert caplog.records == []  # the default level logs nothing

        monkeypatch.setattr(engine, "LOG_EVERY_NODES", 1)
        caplog.set_level(logging.INFO, logger="cyclecluster.engine")
        res = solve(inst, cfg)
        lines = [r.getMessage() for r in caplog.records if r.name == "cyclecluster.engine"]
        rounds = [ln for ln in lines if ln.startswith("root round")]
        nodes = [ln for ln in lines if ln.endswith(" open")]
        assert len(rounds) + len(nodes) == len(lines)
        assert 1 <= len(rounds) <= len(res.root_lp_values)
        for k, (line, value) in enumerate(zip(rounds, res.root_lp_values), start=1):
            assert line.startswith(f"root round {k}: LP {value:.10g}, ")
        assert res.nodes_processed > 1 and len(nodes) == res.nodes_processed
        assert nodes[-1].startswith(f"{res.nodes_processed} nodes: primal ")

    def test_log_stream_events(self, t1):
        buf = io.StringIO()
        res = solve(t1, FAST, log_stream=buf)
        lines = [ln for ln in buf.getvalue().splitlines() if ln]
        assert len(lines) == len(res.bound_history)
        t, nodes, primal, dual, kind = lines[-1].split()
        assert kind == "final"
        assert float(primal) == pytest.approx(res.primal_bound)
        assert int(nodes) == res.nodes_processed


def aging_instance() -> Instance:
    """Weak-signal n=8, m=5: the root ages out cuts and linking rows, and
    re-adds some linking rows, and the tree takes about 20 nodes."""
    return generate(8, 5, forward_strength=0.25, rng_seed=[5, 8, 5, 0])[0]


class TestRootAging:
    def test_counted_points_satisfy_every_linking_row(self, monkeypatch):
        inst = aging_instance()
        model = build_cc(inst)
        link = np.isin(np.asarray(model.row_family), ("same_link", "consec_link"))
        rows, rhs = model.rows[link], model.rhs[link]
        points, readded = [], 0
        solve_node_lp = engine._Search.solve_node_lp

        def spy(search):
            nonlocal readded
            out = search.link_out.sum()
            sol = solve_node_lp(search)
            readded += out - search.link_out.sum()
            if search.nodes_processed == 1 and sol.optimal:  # a root round's value
                points.append((sol.values, sol.objective_value * search.scale))
            return sol

        monkeypatch.setattr(engine._Search, "solve_node_lp", spy)
        res = solve(inst, SolverConfig(time_limit_s=60, node_limit=1, heuristics=()))
        assert res.lp_rows_deleted > 0
        assert readded > 0  # linking rows left the LP and some were violated again
        assert [value for _, value in points] == res.root_lp_values
        for values, _ in points:
            assert np.all(rows @ values - rhs <= 1e-9)

    def test_first_root_lp_is_the_pinned_model(self):
        inst, _ = generate(12, 5, forward_strength=0.25, rng_seed=[5, 12, 5])
        res = solve(inst, SolverConfig(time_limit_s=60, node_limit=1))
        # before aging the first root LP was one solve of a freshly loaded
        # pinned model; aging acts only after it, so its value keeps every bit
        search = engine._Search(inst, SolverConfig(), None)  # builds the pinned model, solves nothing
        cold = solve_lp(lp_relaxation(search.model))
        assert res.root_lp_values[0] == cold.objective_value * search.scale

    def test_cut_pool_is_the_cuts_in_the_lp(self):
        search = engine._Search(aging_instance(), SolverConfig(time_limit_s=60, heuristics=()), None)
        search.run()
        assert search.status == "optimal" and search.nodes_processed > 1
        num_link = search.link_rhs.size
        origin = search.row_origin
        assert origin.size == search.lp.rows.shape[0]
        in_lp = {search.cut_supports[j] for j in origin[origin >= num_link] - num_link}
        assert search.pool_supports == in_lp  # an aged-out cut left the pool
        assert len(set(search.cut_supports)) > len(in_lp)  # and some did age out
        # the tree ran on every linking row, and only the root deleted rows
        assert not search.link_out.any()
        assert np.array_equal(np.sort(origin[(origin >= 0) & (origin < num_link)]), np.arange(num_link))
        root_only = solve(aging_instance(), SolverConfig(time_limit_s=60, node_limit=1, heuristics=()))
        assert search.lp_rows_deleted == root_only.lp_rows_deleted > 0
