"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The benchmark-ablation criterion runs the full default suite at desk-scale
limits and dominates the runtime of this module (tens of minutes on one
core); everything else finishes in seconds.
"""

import math
import time

import numpy as np

from cyclecluster.bench import BenchSetting, aggregate, run_bench, shifted_geomean
from cyclecluster.engine import SolverConfig, compute_gap, solve
from cyclecluster.formulation import VariableSpace, build_cc, clustering_to_point
from cyclecluster.generator import benchmark_suite, generate
from cyclecluster.heuristics import exchange, greedy, rounding
from cyclecluster.instance import Clustering, Instance, objective
from cyclecluster.lp import lp_relaxation, solve_lp
from cyclecluster.oracle import enumerate_optimal, max_integral_violation, polytope_dimension
from cyclecluster.separation import TOL_CUT, Cuts, _walk_rows, separate_partition, separate_subtour_path, separate_triangle
from conftest import random_clustering, random_instance
from model_ref import RltSpace, build_rlt, point_feasible
from sep_brute import brute_best_subtour_path_violation, brute_triangle_cuts, random_box_point, random_fractional_point

SOLVE_CONFIG = SolverConfig(time_limit_s=300.0)  # defaults: all separators and heuristics on
PER_INSTANCE_SECONDS = 60.0
BENCH_TIME_LIMIT_S = 5.0  # desk-scale per-run budget for the ablation suite
BENCH_NODE_LIMIT = 1000


def report(capfd, criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_oracle_equivalence(capfd):
    """Engine matches brute force on 50 generated instances, each < 60 s."""
    worst_time = 0.0
    worst_diff = 0.0
    for k in range(50):
        n = 6 + k % 4
        m = 3 + k % 2
        inst, _ = generate(n, m, rng_seed=[1234, k])
        t0 = time.perf_counter()
        res = solve(inst, SOLVE_CONFIG)
        dt = time.perf_counter() - t0
        _, best = enumerate_optimal(inst)
        worst_time = max(worst_time, dt)
        worst_diff = max(worst_diff, abs(res.primal_bound - best))
        assert res.status == "optimal", f"instance {k} (n={n}, m={m}) ended {res.status}"
        assert abs(res.primal_bound - best) <= 1e-7, f"instance {k}: {res.primal_bound} vs {best}"
        assert dt < PER_INSTANCE_SECONDS, f"instance {k} took {dt:.1f}s"
    report(capfd, 1, True, f"50/50 optimal within 1e-7 (worst diff {worst_diff:.2e}, worst time {worst_time:.2f}s)")


def uniform_cc_point(inst: Instance, space: VariableSpace) -> np.ndarray:
    pt = np.zeros(space.ncols)
    pt[: space.num_x] = 1.0 / inst.m
    for (i, j) in space.pairs:
        z_gain = inst.alpha * abs(inst.q_minus[i, j])
        y_gain = (1.0 - inst.alpha) * inst.q_plus[i, j]
        if z_gain > y_gain:
            if inst.q_minus[i, j] > 0:
                pt[space.z(i, j)] = 1.0
            else:
                pt[space.z(j, i)] = 1.0
        else:
            pt[space.y(i, j)] = 1.0
    return pt


def uniform_rlt_point(inst: Instance, rspace: RltSpace) -> np.ndarray:
    m = inst.m
    pt = np.zeros(rspace.ncols)
    pt[: rspace.num_x] = 1.0 / m
    for (i, j) in rspace.pairs:
        z_gain = inst.alpha * abs(inst.q_minus[i, j])
        y_gain = (1.0 - inst.alpha) * inst.q_plus[i, j]
        if z_gain > y_gain:
            fwd = (i, j) if inst.q_minus[i, j] > 0 else (j, i)
            bwd = (fwd[1], fwd[0])
            for s in range(m):
                pt[rspace.w(fwd[0], fwd[1], s, (s + 1) % m)] = 1.0 / m
                pt[rspace.w(bwd[0], bwd[1], s, (s - 1) % m)] = 1.0 / m
        else:
            for s in range(m):
                pt[rspace.w(i, j, s, s)] = 1.0 / m  # shared with (j, i)
    return pt


def test_criterion_2_root_bound_equality(capfd):
    """CC and RLT LP relaxations agree at the root; uniform x extends to both."""
    cases = []
    for k in range(20):
        n = 5 + k % 4
        m = 3 + k % 3
        m = min(m, n)
        if k % 2:
            inst, _ = generate(n, m, rng_seed=[77, k])
        else:
            inst = random_instance(n, m, seed=k, alpha=0.3 + 0.05 * (k % 7))
        cases.append(inst)
    worst = 0.0
    for inst in cases:
        cc_model = build_cc(inst)
        rlt_model = build_rlt(inst)
        cc_val = solve_lp(lp_relaxation(cc_model)).objective_value
        rlt_val = solve_lp(lp_relaxation(rlt_model)).objective_value
        assert abs(cc_val - rlt_val) <= 1e-6, f"root LPs differ: {cc_val} vs {rlt_val}"
        cc_pt = uniform_cc_point(inst, cc_model.space)
        rlt_pt = uniform_rlt_point(inst, rlt_model.space)
        assert point_feasible(cc_model, cc_pt, tol=1e-9)
        assert point_feasible(rlt_model, rlt_pt, tol=1e-9)
        assert abs(float(cc_model.objective @ cc_pt) - cc_val) <= 1e-6
        assert abs(float(rlt_model.objective @ rlt_pt) - rlt_val) <= 1e-6
        worst = max(worst, abs(cc_val - rlt_val))
    report(capfd, 2, True, f"20/20 root LPs equal within 1e-6 (worst {worst:.2e}); uniform point optimal in both")


def test_criterion_3_cut_validity(capfd):
    """No separator ever emits a cut violated by a feasible integral point."""
    rng = np.random.default_rng(2024)
    grid = [(n, m) for n in (4, 5, 6) for m in (3, 4, 5) if m <= n]
    checked = 0
    for n, m in grid:
        inst = random_instance(n, m, seed=n * 10 + m, alpha=1 / 1.001)
        space = VariableSpace(inst)
        for trial in range(200):
            if trial % 2:
                point = random_box_point(space, rng)
            else:
                point = random_fractional_point(space, rng, components=3, noise=0.3)
            cuts = Cuts.stack([separate(space, point) for separate in (separate_triangle, separate_subtour_path, separate_partition)])
            checked += len(cuts)
            worst = max_integral_violation(inst, cuts).max(initial=-math.inf)
            assert worst <= 1e-9, f"invalid cut on (n={n}, m={m}) trial {trial}: violation {worst}"
    report(capfd, 3, True, f"{checked} emitted cuts over {len(grid)}x200 points, zero integral violations")


def test_criterion_4_separation_completeness(capfd):
    """Triangle output equals template brute force; walk DP matches simple enumeration."""
    rng = np.random.default_rng(99)
    for n, m in [(5, 3), (6, 4), (6, 5), (7, 4)]:
        space = VariableSpace(random_instance(n, m, seed=n + m, alpha=1 / 1.001))
        for trial in range(10):
            point = random_box_point(space, rng) if trial % 2 else random_fractional_point(space, rng, noise=0.25)
            cuts = separate_triangle(space, point)
            got = dict(zip(cuts.keys, cuts.violation))
            want = brute_triangle_cuts(space, point, TOL_CUT)
            assert set(got) == set(want), f"triangle sets differ on (n={n}, m={m})"
            for sup, viol in want.items():
                assert abs(got[sup] - viol) <= 1e-9
    trials = 0
    rng = np.random.default_rng(4242)
    for trial in range(100):
        m = (3, 4, 5)[trial % 3]
        space = VariableSpace(random_instance(7, m, seed=trial % 7, alpha=1 / 1.001))
        point = random_fractional_point(space, rng, components=3, noise=0.15)
        _, Y, Z = space.point_matrices(point)
        for i1 in range(7):
            emitted = _walk_rows(space, Y, Z, np.array([i1]), TOL_CUT)  # the rows of start i1 alone
            got = emitted.violation.max(initial=0.0)
            want = brute_best_subtour_path_violation(space, point, i1, TOL_CUT)
            assert abs(got - want) <= 1e-9, f"DP vs brute at start {i1}, trial {trial}: {got} vs {want}"
        trials += 1
    report(capfd, 4, True, f"triangle sets identical on 40 points; DP best violation exact on {trials} trials x 7 starts")


def test_criterion_5_heuristic_contracts(capfd):
    """Exchange is monotone, outputs stay feasible, rounding inverts integral x."""
    rng = np.random.default_rng(555)
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(4, 10))
        m = int(rng.integers(3, min(n, 5) + 1))
        inst = random_instance(n, m, seed=trial, alpha=float(rng.uniform(0.05, 0.999)))
        start = Clustering(random_clustering(n, m, rng), m)
        out = exchange(inst, start, rng_seed=trial)
        assert objective(inst, out) >= objective(inst, start) - 1e-12
        assert sorted(set(out.assignment)) == list(range(m))  # total + nonempty
        checked += 1
    for seed in range(40):
        inst = random_instance(6 + seed % 3, 3 + seed % 2, seed=seed)
        g = greedy(inst)
        assert sorted(set(g.assignment)) == list(range(inst.m))
        e = exchange(inst, g, rng_seed=seed)
        assert sorted(set(e.assignment)) == list(range(inst.m))
    inversions = 0
    for k in range(100):
        n = 5 + k % 5
        m = 3 + k % 3
        m = min(m, n)
        inst = random_instance(n, m, seed=k)
        space = VariableSpace(inst)
        c = Clustering(random_clustering(n, m, rng), m)
        x = clustering_to_point(space, c)[: space.num_x]
        assert rounding(inst, x) == c
        inversions += 1
    report(capfd, 5, True, f"{checked} monotone exchange runs; invariants hold; {inversions} exact rounding inversions")


def test_criterion_6_polytope_dimensions(capfd):
    """Affine dimensions of the incidence polytope match the closed forms."""
    expected = {
        (5, 3): 2 * 5 + 5 * 4,
        (6, 3): 2 * 6 + 6 * 5,
        (6, 4): 3 * 6 + (3 * 6 * 5) // 2,
        (7, 4): 3 * 7 + (3 * 7 * 6) // 2,
        (7, 5): 4 * 7 + (3 * 7 * 6) // 2,
    }
    results = {}
    for (n, m), want in expected.items():
        got = polytope_dimension(n, m)
        assert got == want, f"dimension({n},{m}) = {got}, expected {want}"
        results[(n, m)] = got
    report(capfd, 6, True, f"dimensions {results} equal the closed-form values exactly")


def test_criterion_8_gap_and_aggregation_formulas(capfd):
    """Gap formula hand cases (including >100%) and shifted geomean cases."""
    assert compute_gap(0.4, 0.4) == 0.0
    assert abs(compute_gap(1.0, 2.0) - 100.0 * 1.0 / (1.0 + 1e-6)) <= 1e-9
    over = compute_gap(0.25, 1.0)
    assert abs(over - 100.0 * 0.75 / (0.25 + 1e-6)) <= 1e-9
    assert over > 100.0
    assert abs(over - 300.0) < 0.01
    assert abs(shifted_geomean([5.0, 5.0, 5.0, 5.0], 10.0) - 5.0) <= 1e-9
    assert abs(shifted_geomean([0.0, 990.0], 10.0) - 90.0) <= 1e-9
    report(capfd, 8, True, "gap formula incl. 300% case and shifted geomeans reproduce hand values to 1e-9")


def test_criterion_9_determinism(capfd):
    """Identical seeds reproduce node counts, cut counts, bounds, incumbents."""
    cfg = SolverConfig(time_limit_s=120.0, rng_seed=42)
    for k in range(10):
        n = 6 + k % 3
        m = 3 + k % 2
        inst, _ = generate(n, m, rng_seed=[999, k])
        a = solve(inst, cfg)
        b = solve(inst, cfg)
        assert a.nodes_processed == b.nodes_processed, f"instance {k}: node counts differ"
        assert a.cut_counts == b.cut_counts, f"instance {k}: cut counts differ"
        assert a.primal_bound == b.primal_bound and a.dual_bound == b.dual_bound
        assert a.best_clustering == b.best_clustering
    report(capfd, 9, True, "10/10 repeated runs bitwise-identical in nodes, cuts, bounds, incumbents")


def test_criterion_7_ablation_direction(capfd):
    """Separator ablation orders node counts; heuristics shrink the primal integral.

    Desk-scale run of the default 48-instance suite; the paper-scale numbers
    are explicitly not reproduction targets.
    """
    suite = [(meta["name"], inst) for inst, meta in benchmark_suite(rng_seed=0)]
    assert len(suite) == 48
    settings = [BenchSetting.parse(tok) for tok in ("none/none", "none/all", "subtour/all", "all/all")]
    cfg = SolverConfig(time_limit_s=BENCH_TIME_LIMIT_S, node_limit=BENCH_NODE_LIMIT, rng_seed=0)
    records = run_bench(suite, settings, cfg)
    rows = {s.setting: s for s in aggregate(records)}
    no_sepa = rows["none/all"].sgm_nodes
    subtour = rows["subtour/all"].sgm_nodes
    all_sepa = rows["all/all"].sgm_nodes

    def leq_with_margin(smaller, larger):
        return larger >= 1.05 * smaller or larger == smaller

    assert leq_with_margin(subtour, no_sepa), f"no-sepa nodes {no_sepa:.1f} vs subtour-only {subtour:.1f}"
    assert leq_with_margin(all_sepa, subtour), f"subtour-only nodes {subtour:.1f} vs all-sepa {all_sepa:.1f}"
    p_none = rows["none/none"].sgm_primal_integral
    p_all = rows["none/all"].sgm_primal_integral
    assert p_all < p_none, f"primal integral not reduced by heuristics: {p_all:.1f} vs {p_none:.1f}"
    report(
        capfd,
        7,
        True,
        f"sgm nodes {no_sepa:.1f} >= {subtour:.1f} >= {all_sepa:.1f} (5% margins); "
        f"primal integral {p_none:.1f} -> {p_all:.1f} with heuristics",
    )
