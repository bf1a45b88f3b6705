import numpy as np
import pytest

from cyclecluster.instance import Instance, objective
from cyclecluster.oracle import (
    BudgetExceededError,
    enumerate_feasible_points,
    enumerate_optimal,
    feasible_point_matrix,
    full_universe_size,
    max_integral_violation,
    check_cut_validity,
    cut_vectors,
    polytope_dimension,
    surjection_count,
    worst_value,
)
from cyclecluster.formulation import VariableSpace
from conftest import random_instance
from sep_brute import named_cut


class TestEnumerateOptimal:
    def test_t1(self, t1):
        best, val = enumerate_optimal(t1)
        assert val == pytest.approx(0.4, abs=1e-9)
        assert best.clusters() == [[0], [1], [2]]

    def test_agrees_with_direct_objective(self):
        for seed in range(8):
            inst = random_instance(6, 3, seed=seed)
            best, val = enumerate_optimal(inst)
            assert objective(inst, best) == pytest.approx(val, abs=1e-9)

    def test_symmetric_matrix_drops_flow_term(self):
        rng = np.random.default_rng(4)
        q = rng.random((6, 6))
        q = q + q.T
        np.fill_diagonal(q, 0)
        inst = Instance(n=6, m=3, alpha=0.7, Q=q)
        _, val = enumerate_optimal(inst)
        # flow part vanishes: optimum is (1 - alpha) * best achievable coherence
        coh_only = Instance(n=6, m=3, alpha=1e-9, Q=q)
        _, coh_val = enumerate_optimal(coh_only)
        assert val / (1 - 0.7) == pytest.approx(coh_val / (1 - 1e-9), rel=1e-9)

    def test_scaling_linearity(self):
        inst = random_instance(6, 3, seed=15)
        doubled = Instance(n=6, m=3, alpha=inst.alpha, Q=2 * inst.Q)
        assert enumerate_optimal(doubled)[1] == pytest.approx(2 * enumerate_optimal(inst)[1], abs=1e-9)

    def test_budget_guard(self):
        inst = random_instance(40, 10, seed=0)
        with pytest.raises(BudgetExceededError):
            enumerate_optimal(inst)

    def test_worst_leq_best(self):
        inst = random_instance(6, 3, seed=2)
        assert worst_value(inst) <= enumerate_optimal(inst)[1]


class TestFeasiblePoints:
    def test_counts(self):
        assert surjection_count(3, 3) == 6
        assert surjection_count(4, 3) == 36
        assert len(list(enumerate_feasible_points(3, 3))) == 6
        assert feasible_point_matrix(4, 3).shape == (36, full_universe_size(4, 3))

    def test_points_are_binary_and_consistent(self):
        pts = feasible_point_matrix(4, 3)
        assert set(np.unique(pts)) <= {0.0, 1.0}
        n, m = 4, 3
        x = pts[:, : n * m].reshape(len(pts), n, m)
        assert np.all(x.sum(axis=2) == 1.0)
        assert np.all(x.sum(axis=1).min(axis=1) >= 1.0)
        # per pair: y + z + z' is 1 for m=3 (every pair same or consecutive)
        tail = pts[:, n * m :].reshape(len(pts), -1, 3)
        assert np.all(tail.sum(axis=2) == 1.0)


class TestPolytopeDimension:
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (5, 3, 2 * 5 + 20),
            (6, 4, 3 * 6 + 45),
        ],
    )
    def test_matches_formula(self, n, m, expected):
        assert polytope_dimension(n, m) == expected

    def test_small_m3(self):
        # n=3, m=3: formula range requires nothing; rank computed directly
        d = polytope_dimension(3, 3)
        assert d <= 2 * 3 + 6
        assert d == 5  # 6 affinely independent-ish points minus dependencies


class TestCutValidity:
    def test_valid_triangle_y(self):
        inst = random_instance(5, 4, seed=1)
        cut = named_cut(VariableSpace(inst), {("y", 0, 1): 1.0, ("y", 1, 2): 1.0, ("y", 0, 2): -1.0}, 1.0)
        assert check_cut_validity(inst, cut)

    def test_fabricated_invalid(self):
        inst = random_instance(5, 3, seed=1)
        cut = named_cut(VariableSpace(inst), {("y", 0, 1): 1.0}, 0.0)
        assert not check_cut_validity(inst, cut)
        assert max_integral_violation(inst, cut) == pytest.approx(1.0)

    def test_m4_strengthened_triangle_fails_for_m5(self):
        # negative control: the m=4-only strengthened triangle is invalid at m=5
        i, j, k = 0, 1, 2
        coeffs = {
            ("z", i, j): 1.0,
            ("z", i, k): 1.0,
            ("y", j, k): -2.0,
            ("z", j, k): -1.0,
            ("z", k, j): -1.0,
            ("z", j, i): -1.0,
            ("z", k, i): -1.0,
        }
        inst4 = random_instance(6, 4, seed=3)
        inst5 = random_instance(6, 5, seed=3)
        assert check_cut_validity(inst4, named_cut(VariableSpace(inst4), coeffs, 0.0))
        assert not check_cut_validity(inst5, named_cut(VariableSpace(inst5), coeffs, 0.0))

    def test_sparse_instance_columns_map_into_the_universe(self):
        # on a sparse instance the model skips pairs; the oracle maps columns by weight alone
        inst = random_instance(6, 4, seed=8, density=0.5)
        space = VariableSpace(inst)
        assert space.ycol[0, 1] < 0 and space.ycol[0, 2] >= 0
        cut = named_cut(space, {("z", 2, 0): 1.0, ("y", 0, 2): 1.0}, 0.0)
        (vec,) = cut_vectors(inst, cut)
        block = 6 * 4 + 3 * 1  # pair (0, 2) is the second of the full universe
        assert np.flatnonzero(vec).tolist() == [block, block + 2]
        assert max_integral_violation(inst, cut) == pytest.approx(1.0)
