import logging
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cyclecluster import engine, separation
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
from cyclecluster.lp import LinearProgram, LpSolution, lp_relaxation, solve_lp
from cyclecluster.oracle import enumerate_optimal
import sep_ref
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
        # limits: it ends after 6-9 s, and none of them closes within 20 s
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
        # with separators the 3rd LP fails, a root cut round's; without them
        # the first LP after the root, a child node's
        inst = random_instance(8, 4, seed=11, alpha=1 / 1.001)
        # sparsify is left out: its nested solve would take some of the calls
        cfg = SolverConfig(time_limit_s=60, separators=separators, heuristics=("greedy", "rounding", "exchange"))
        failing = 3 if separators else solve(inst, replace(cfg, node_limit=1)).lp_solves + 1
        calls = []

        def one_fails(lp, time_limit=None):
            calls.append(lp)
            if len(calls) == failing:
                return LpSolution("error", None, None, 0)
            return solve_lp(lp, time_limit)

        monkeypatch.setattr(engine, "solve_lp", one_fails)
        res = solve(inst, cfg)
        _, best = enumerate_optimal(inst)
        assert len(calls) == failing
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
        assert len(rounds) == len(res.root_lp_values) >= 2
        for k, (line, value) in enumerate(zip(rounds, res.root_lp_values), start=1):
            assert line.startswith(f"root round {k}: LP {value:.10g}, ")
            assert line.endswith(" linking rows re-added")
        assert res.nodes_processed > 1 and len(nodes) == res.nodes_processed
        assert nodes[-1].startswith(f"{res.nodes_processed} nodes: primal ")

    def test_bound_history_ends_with_the_final_event(self, t1):
        res = solve(t1, FAST)
        last = res.bound_history[-1]
        assert last.event == "final"
        assert last.primal == res.primal_bound and last.nodes == res.nodes_processed


LINK_FAMILIES = ("same_link", "consec_link")


def aging_instance() -> Instance:
    """Weak-signal n=8, m=5: the root re-adds linking rows and ages out cuts
    and linking rows, and the tree takes about 20 nodes."""
    return generate(8, 5, forward_strength=0.25, rng_seed=[5, 8, 5, 0])[0]


class TestRootAging:
    @pytest.mark.parametrize("cap", [SolverConfig.cut_rounds_root, 2], ids=["default", "round_cap"])
    def test_final_root_point_satisfies_every_linking_row(self, monkeypatch, cap):
        # with a cap of 2 the point after the second separation round still
        # violates linking rows, so the loop has to finish by re-adding them alone
        model = build_cc(aging_instance())
        link = np.isin(np.asarray(model.row_family), LINK_FAMILIES)
        rows, upper = model.rows[link], model.row_upper[link]
        points, separated = [], []
        solve_node_lp, separate = engine._Search.solve_node_lp, engine._Search.separate

        def spy(search):
            sol = solve_node_lp(search)
            if search.nodes_processed == 1 and sol.optimal:  # a root round's value
                points.append((sol.values, sol.objective_value * search.scale))
            return sol

        def separate_spy(search, point):
            separated.append(len(points))
            return separate(search, point)

        monkeypatch.setattr(engine._Search, "solve_node_lp", spy)
        monkeypatch.setattr(engine._Search, "separate", separate_spy)
        res = solve(aging_instance(), SolverConfig(time_limit_s=60, node_limit=1, cut_rounds_root=cap, heuristics=()))
        assert res.link_rows_readded > 0
        assert [value for _, value in points] == res.root_lp_values
        for a, b in zip(res.root_lp_values, res.root_lp_values[1:]):
            assert b <= a + 1e-9
        whole = [bool(np.all(rows @ values - upper <= 1e-9)) for values, _ in points]
        assert whole[-1]  # the point the tree would branch on
        assert not whole[0]  # the first root LP has no linking row
        if cap == 2:
            # every separation round counts toward the cap, whatever its point
            assert separated == [1, 2]
            assert not whole[2] and len(points) > 3
        else:
            assert res.lp_rows_deleted > 0

    def test_time_out_at_a_relaxed_point_is_a_time_limit(self, monkeypatch):
        # The first root LP, without linking rows, is integral in x, so a root
        # cut short there would offer its clustering and drop the node as
        # solved; instead the node goes back on the heap with its bound.
        search_out_of_time = engine._Search.out_of_time
        monkeypatch.setattr(engine._Search, "out_of_time", lambda search: search.lp_solves >= 1 or search_out_of_time(search))
        res = solve(aging_instance(), SolverConfig(time_limit_s=60, heuristics=("greedy",)))
        assert res.lp_solves == 1 and res.nodes_processed == 1
        assert res.status == "time_limit"
        assert res.root_lp_values == []
        assert res.dual_bound > res.primal_bound and res.gap_percent > 0

    def test_tree_time_out_at_a_relaxed_point_is_a_time_limit(self, monkeypatch):
        # A child's first LP lacks the linking rows the root left in the pool;
        # when the time runs out at its point, the child goes back on the heap.
        cfg = SolverConfig(time_limit_s=60, heuristics=("greedy",))
        root_solves = solve(aging_instance(), replace(cfg, node_limit=1)).lp_solves
        search_out_of_time = engine._Search.out_of_time
        monkeypatch.setattr(
            engine._Search, "out_of_time", lambda search: search.lp_solves > root_solves or search_out_of_time(search)
        )
        violated, pushed = [], []
        violated_linking_rows, push = engine._Search.violated_linking_rows, engine._Search.push

        def violated_spy(search, values):
            rows = violated_linking_rows(search, values)
            violated.append(rows.size)
            return rows

        def push_spy(search, bound, fixings):
            pushed.append((bound, fixings))
            push(search, bound, fixings)

        monkeypatch.setattr(engine._Search, "violated_linking_rows", violated_spy)
        monkeypatch.setattr(engine._Search, "push", push_spy)
        res = solve(aging_instance(), cfg)
        assert res.lp_solves == root_solves + 1 and res.nodes_processed == 2
        assert violated[-1] > 0  # the child's point is not one of the whole model
        # the first child goes back, with the bound of its relaxed LP
        (bound, fixings), (child_bound, child_fixings) = pushed[-1], pushed[1]
        assert fixings == child_fixings and bound <= child_bound
        assert res.status == "time_limit"
        assert res.dual_bound > res.primal_bound and res.gap_percent > 0

    def test_first_root_lp_is_the_pinned_core_rows(self):
        inst, _ = generate(12, 5, forward_strength=0.25, rng_seed=[5, 12, 5])
        res = solve(inst, SolverConfig(time_limit_s=60, node_limit=1))
        # the first root LP is one solve of a freshly loaded LP of the pinned
        # assign, cover and pair rows; aging acts only after it
        search = engine._Search(inst, SolverConfig())  # builds the pinned model, solves nothing
        model = search.model
        core = ~np.isin(np.asarray(model.row_family), LINK_FAMILIES)
        cold = solve_lp(LinearProgram(model.objective, model.rows[core], model.row_lower[core], model.row_upper[core], model.lo, model.hi))
        assert res.root_lp_values[0] == cold.objective_value * search.scale
        assert cold.objective_value >= solve_lp(lp_relaxation(model)).objective_value

    def test_no_linking_row_is_lost(self):
        # without cuts the root ends at the optimum of the whole pinned model
        inst, _ = generate(12, 5, forward_strength=0.25, rng_seed=[5, 12, 5])
        res = solve(inst, SolverConfig(time_limit_s=60, node_limit=1, separators=()))
        assert res.link_rows_readded > 0
        search = engine._Search(inst, SolverConfig())
        cold = solve_lp(lp_relaxation(search.model)).objective_value
        assert res.root_dual_bound == pytest.approx((cold + engine.DUAL_PAD) * search.scale, rel=1e-9, abs=0)

    def test_cut_pool_is_the_cuts_in_the_lp(self):
        search = engine._Search(aging_instance(), SolverConfig(time_limit_s=60, heuristics=()))
        search.run()
        assert search.status == "optimal" and search.nodes_processed > 1
        origin = search.row_origin
        assert origin.size == search.lp.rows.shape[0]
        assert ((origin >= 0) | (origin == engine.CORE_ROW) | (origin == engine.CUT_ROW)).all()
        # some cut rows aged out, and none repeats
        cut = origin == engine.CUT_ROW
        in_lp = row_keys(search.lp.rows[cut], search.lp.row_upper[cut])
        assert 0 < len(in_lp) < sum(search.cut_counts.values())
        assert len(set(in_lp)) == len(in_lp)
        # the linking rows in the LP are exactly those out of the lazy pool,
        # some stayed in the pool through the tree, and only the root deleted rows
        assert np.array_equal(np.sort(origin[origin >= 0]), np.flatnonzero(~search.link_out))
        assert search.link_out.any()
        root_only = solve(aging_instance(), SolverConfig(time_limit_s=60, node_limit=1, heuristics=()))
        assert search.lp_rows_deleted == root_only.lp_rows_deleted > 0


def row_keys(rows, upper) -> list[tuple]:
    """Each row as (upper bound, columns, coefficients).  A cut keeps its
    columns ascending, so two cuts are the same inequality exactly when
    these are equal."""
    bounds = zip(rows.indptr[:-1].tolist(), rows.indptr[1:].tolist())
    return [(float(u), tuple(rows.indices[a:b].tolist()), tuple(rows.data[a:b].tolist())) for u, (a, b) in zip(upper, bounds)]


class TestCutPoolInvariant:
    """The engine keeps no set of the cuts in the LP; the LP's own optimum
    keeps a separated cut from being one the LP already has."""

    @pytest.mark.parametrize("k", [None, 0, 1], ids=["aging", "tree-0", "tree-1"])
    def test_no_cut_in_the_lp_is_separated_again(self, monkeypatch, k):
        if k is None:
            inst = aging_instance()
        else:  # instance k of the benchmark's tree slice, before relabeling
            inst, _ = generate(10, 3, forward_strength=0.25, rng_seed=[20240116, 10, 3, 25, k])
        separated_at = []
        separate = engine._Search.separate

        def spy(search, point):
            cut = search.row_origin == engine.CUT_ROW
            rows, upper = search.lp.rows[cut], search.lp.row_upper[cut]
            # at the point separated from, every cut in the LP holds to within TOL_CUT
            assert (rows @ point - upper).max(initial=-np.inf) <= separation.TOL_CUT
            in_lp = row_keys(rows, upper)
            assert len(set(in_lp)) == len(in_lp)
            cuts = separate(search, point)
            assert not set(row_keys(cuts, cuts.rhs)) & set(in_lp)
            separated_at.append(search.nodes_processed)
            return cuts

        monkeypatch.setattr(engine._Search, "separate", spy)
        res = solve(inst, SolverConfig(time_limit_s=60))
        assert res.status == "optimal" and sum(res.cut_counts.values()) > 0
        assert max(separated_at) > 1  # tree nodes separate too


def sparse_raw_counts(n: int, m: int, k: int) -> Instance:
    """Transition counts near 1e6 in total, with the lightest 85% of pairs zeroed."""
    base, _ = generate(n, m, rng_seed=[77, n, m, k])
    q = np.round(base.Q * 1e6)
    i, j = np.triu_indices(n, 1)
    light = np.argsort(q[i, j] + q[j, i], kind="stable")[: int(0.85 * i.size)]
    q[i[light], j[light]] = q[j[light], i[light]] = 0.0
    return Instance(n=n, m=m, alpha=base.alpha, Q=q)


class TestVertexBranching:
    def test_children_fix_the_whole_row(self, monkeypatch):
        inst = aging_instance()
        search = engine._Search(inst, SolverConfig(time_limit_s=60, separators=(), heuristics=()))
        points = []
        solve_node_lp = engine._Search.solve_node_lp

        def spy(search):
            points.append(solve_node_lp(search))
            return points[-1]

        monkeypatch.setattr(engine._Search, "solve_node_lp", spy)
        search.process_node({}, math.inf, is_root=True)
        x = points[-1].values[: search.space.num_x].reshape(inst.n, inst.m)
        children = [fixings for _, _, fixings in sorted(search.heap)]
        i = min(children[0]) // inst.m
        assert x[i].max() == x.max(axis=1).min() < 1.0 - engine.TOL_INTEGRALITY  # the row farthest from integral
        row = [search.space.x(i, s) for s in range(inst.m)]
        # one child per cluster, in cluster order; child s puts vertex i in cluster s
        assert children == [{c: float(c == row[s]) for c in row} for s in range(inst.m)]
        # pairwise disjoint, and each cluster of vertex i meets exactly one child
        for a in range(inst.m):
            for b in range(a + 1, inst.m):
                assert any(children[a][c] != children[b][c] for c in row)
        for s in range(inst.m):
            assert sum(all(fix[c] == float(c == row[s]) for c in row) for fix in children) == 1

    def test_excluded_clusters_get_no_child(self):
        inst = aging_instance()
        search = engine._Search(inst, SolverConfig(time_limit_s=60))
        space = search.space
        parent = {space.x(3, 1): 0.0, space.x(3, 4): 0.0, space.ncols - 1: 1.0}
        search.branch_on_vertex(3, parent, 0.5)
        children = [fixings for _, _, fixings in sorted(search.heap)]
        row = [space.x(3, s) for s in range(inst.m)]
        assert children == [{**parent, **{c: float(c == row[s]) for c in row}} for s in (0, 2, 3)]
        assert all(bound == -0.5 for bound, _, _ in search.heap)

    def test_sparse_raw_counts_match_oracle(self):
        # without cuts or heuristics the tree does the work
        cfg = SolverConfig(time_limit_s=60, separators=(), heuristics=())
        branched = 0
        for k in range(12):
            m = 3 + k % 3
            inst = sparse_raw_counts(9, m, k)
            _, best = enumerate_optimal(inst)
            res = solve(inst, cfg)
            assert res.status == "optimal", f"m={m} k={k}"
            assert abs(res.primal_bound - best) <= 1e-7 * max(1.0, abs(best)), f"m={m} k={k}: {res.primal_bound} vs {best}"
            assert objective(inst, res.best_clustering) == pytest.approx(res.primal_bound, rel=1e-12)
            branched += res.nodes_processed > 1
        assert branched >= 1  # 4 of the 12 branch


class TestCutIntake:
    """How a round's cuts go into the LP, against the cuts `sep_ref` finds."""

    @staticmethod
    def expected(space, point):
        """The cuts of one round as `sep_ref` builds them: each separator's in
        turn, the first `MAX_CUTS_PER_FAMILY` of each family, then the first
        per support; with the number of cuts the cap left out and, per
        family, the number of cuts equal to an earlier one."""
        found = (
            sep_ref.separate_triangle(space, point, separation.TOL_CUT, max_per_family=engine.MAX_CUTS_PER_FAMILY),
            sep_ref.separate_subtour_path(space, point, separation.TOL_CUT),
            sep_ref.separate_partition(space, point, separation.TOL_CUT),
        )
        kept, per_family = [], Counter()
        for cuts in found:
            for cut in cuts:
                per_family[cut.family] += 1
                if per_family[cut.family] <= engine.MAX_CUTS_PER_FAMILY:
                    kept.append(cut)
        first, repeats = {}, Counter()
        for cut in kept:
            if cut.support in first:
                repeats[(cut.family, first[cut.support].family)] += 1
            first.setdefault(cut.support, cut)
        return list(first.values()), sum(map(len, found)) - len(kept), repeats

    def test_cap_order_and_dedupe(self):
        # the first instance of the benchmark's root slice, weak signal, n=12, m=5
        inst, _ = generate(12, 5, forward_strength=0.25, rng_seed=[20240116, 12, 5, 25, 0])
        search = engine._Search(inst, SolverConfig(heuristics=()))
        assert inst.m >= engine.PARTITION_MIN_M
        no_link = np.zeros(0, dtype=np.int64)
        in_lp, capped, repeats = [], 0, Counter()
        for _ in range(3):  # on this instance the cap acts in rounds 1 and 2, repeats come in round 3
            point = search.solve_node_lp().values
            want, capped_now, repeats_now = self.expected(search.space, point)
            capped, repeats = capped + capped_now, repeats + repeats_now
            # the re-solved point violates no cut in the LP, so no cut of the round is one
            cut_rows = search.row_origin == engine.CUT_ROW
            assert (search.lp.rows[cut_rows] @ point - search.lp.row_upper[cut_rows]).max(initial=-np.inf) <= separation.TOL_CUT
            assert not {cut.support for cut in want} & {cut.support for cut in in_lp}
            start = search.lp.rows.shape[0]
            assert search.add_rows(search.separate(point), no_link) == len(want)
            rows = search.lp.rows[start:]
            assert rows.shape[0] == len(want)
            for r, cut in enumerate(want):
                at = slice(rows.indptr[r], rows.indptr[r + 1])
                assert rows.indices[at].tolist() == cut.cols.tolist()
                assert rows.data[at].tobytes() == cut.vals.tobytes()
                assert search.lp.row_lower[start + r] == -np.inf and search.lp.row_upper[start + r] == cut.rhs
            in_lp += want
        assert capped > 0  # the cap acted
        assert repeats[("Partition", "TriangleZZY")] > 0  # a partition cut repeated a triangle
        assert search.cut_counts == Counter(cut.family for cut in in_lp)
