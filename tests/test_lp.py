import numpy as np
import pytest
from scipy import sparse

from cyclecluster import lp as lp_mod
from cyclecluster.formulation import build_cc
from cyclecluster.lp import LinearProgram, lp_relaxation, solve_lp
from cyclecluster.oracle import enumerate_optimal
from conftest import random_instance


def tiny_lp(obj, rows, senses, rhs, lo, hi):
    mat = sparse.csr_matrix(np.asarray(rows, dtype=float))
    return LinearProgram(
        objective=np.asarray(obj, dtype=float),
        rows=mat,
        senses=np.asarray(senses),
        rhs=np.asarray(rhs, dtype=float),
        lo=np.asarray(lo, dtype=float),
        hi=np.asarray(hi, dtype=float),
    )


class TestSolveLp:
    def test_simple_bound(self):
        lp = tiny_lp([1.0], [[1.0]], ["<"], [0.5], [0.0], [1.0])
        sol = solve_lp(lp)
        assert sol.optimal
        assert sol.objective_value == pytest.approx(0.5)

    def test_infeasible(self):
        lp = tiny_lp([1.0], [[1.0], [1.0]], [">", "<"], [0.6, 0.4], [0.0], [1.0])
        assert solve_lp(lp).status == "infeasible"

    def test_cc_root_dominates_optimum(self, t1):
        sol = solve_lp(lp_relaxation(build_cc(t1)))
        assert sol.optimal
        assert sol.objective_value >= 0.4 - 1e-9

    def test_residuals_within_tolerance(self):
        inst = random_instance(6, 3, seed=0)
        lp = lp_relaxation(build_cc(inst))
        sol = solve_lp(lp)
        lhs = lp.rows @ sol.values
        for k in range(len(lp.rhs)):
            if lp.senses[k] == "<":
                assert lhs[k] <= lp.rhs[k] + 1e-7
            elif lp.senses[k] == ">":
                assert lhs[k] >= lp.rhs[k] - 1e-7
            else:
                assert lhs[k] == pytest.approx(lp.rhs[k], abs=1e-7)
        assert np.all(sol.values >= lp.lo - 1e-7)
        assert np.all(sol.values <= lp.hi + 1e-7)

    def test_determinism(self):
        inst = random_instance(7, 4, seed=3)
        lp = lp_relaxation(build_cc(inst))
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.objective_value == b.objective_value
        assert np.array_equal(a.values, b.values)

    def test_weak_duality_vs_enumeration(self):
        for seed in range(5):
            inst = random_instance(6, 3, seed=seed)
            model = build_cc(inst)
            sol = solve_lp(lp_relaxation(model))
            _, best = enumerate_optimal(inst)
            assert sol.objective_value >= best - 1e-7


class TestResolveWithAddedRows:
    def test_nonviolated_row_keeps_objective(self):
        lp = tiny_lp([1.0], [[1.0]], ["<"], [0.5], [0.0], [1.0])
        prior = solve_lp(lp)
        lp.add_rows([([0], [1.0], "<", 0.9)])
        after = solve_lp(lp)
        assert after.objective_value == pytest.approx(prior.objective_value)

    def test_violated_cut_weakly_decreases(self):
        inst = random_instance(5, 3, seed=4)
        lp = lp_relaxation(build_cc(inst))
        prior = solve_lp(lp)
        # cap the largest objective column at half its LP value
        col = int(np.argmax(lp.objective * prior.values))
        lp.add_rows([([col], [1.0], "<", float(prior.values[col]) / 2.0)])
        after = solve_lp(lp)
        assert after.optimal
        assert after.objective_value <= prior.objective_value + 1e-9

    def test_cold_equals_warm_on_random_cut_sequences(self):
        """A persistent LP after random row additions and bound fixings agrees
        with a freshly loaded LP of the same rows and bounds."""
        rng = np.random.default_rng(11)
        inst = random_instance(5, 3, seed=6)
        model = build_cc(inst)
        lp = lp_relaxation(model)
        num_x = model.space.num_x
        statuses = set()
        for _ in range(16):
            cols = rng.choice(lp.ncols, size=3, replace=False)
            vals = rng.uniform(0.2, 1.0, size=3)
            lp.add_rows([(cols.tolist(), vals.tolist(), "<", float(rng.uniform(0.5, 2.0)))])
            lo, hi = model.lo.copy(), model.hi.copy()
            fixed = rng.choice(num_x, size=int(rng.integers(0, 5)), replace=False)
            lo[fixed] = hi[fixed] = rng.integers(0, 2, size=fixed.size)
            lp.set_bounds(lo, hi)
            warm = solve_lp(lp)
            cold = solve_lp(LinearProgram(lp.objective, lp.rows, lp.senses, lp.rhs, lo, hi))
            assert warm.status == cold.status
            if cold.optimal:
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-7)
            statuses.add(cold.status)
        assert statuses == {"optimal", "infeasible"}


def test_private_highs_binding_contract():
    """Pins every method of scipy's private _Highs that the warm path calls."""
    from scipy.optimize._highspy._core import HighsModelStatus

    lp = tiny_lp([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], ["<", "<"], [4.0, 1.0], [0.0, 0.0], [5.0, 5.0])
    highs = lp_mod._load(lp)  # HighsLp, passModel, setOptionValue
    highs.setOptionValue("time_limit", highs.getRunTime() + 60.0)
    highs.run()
    assert highs.getModelStatus() == HighsModelStatus.kOptimal
    assert -highs.getInfo().objective_function_value == pytest.approx(8.0)
    assert list(highs.getSolution().col_value) == pytest.approx([0.0, 4.0])

    after_first = highs.getRunTime()
    highs.addRows(1, np.array([-np.inf]), np.array([3.0]), 2, np.array([0], dtype=np.int32),
                  np.array([0, 1], dtype=np.int32), np.array([1.0, 1.0]))
    highs.run()
    assert -highs.getInfo().objective_function_value == pytest.approx(6.0)
    assert highs.getInfo().simplex_iteration_count >= 1  # simplex ran from the kept basis
    assert highs.getRunTime() >= after_first  # run time is summed over runs

    highs.changeColsBounds(1, np.array([1], dtype=np.int32), np.array([0.0]), np.array([1.0]))
    highs.run()
    assert list(highs.getSolution().col_value) == pytest.approx([2.0, 1.0])

    # time_limit counts the object's whole run time: a limit below it stops at once
    highs.changeColsBounds(1, np.array([0], dtype=np.int32), np.array([0.0]), np.array([0.5]))
    highs.setOptionValue("time_limit", 0.0)
    highs.run()
    assert highs.getModelStatus() == HighsModelStatus.kTimeLimit

    highs.changeColsBounds(1, np.array([1], dtype=np.int32), np.array([4.0]), np.array([4.0]))
    highs.setOptionValue("time_limit", highs.getRunTime() + 60.0)
    highs.run()
    assert highs.getModelStatus() == HighsModelStatus.kInfeasible
    assert highs.modelStatusToString(highs.getModelStatus()) == "Infeasible"


def test_time_limit_is_counted_from_each_solve():
    inst = random_instance(14, 5, seed=1)
    lp = lp_relaxation(build_cc(inst))
    first = solve_lp(lp)
    spent = lp._highs.getRunTime()
    col = int(np.argmax(lp.objective * first.values))
    lp.add_rows([([col], [1.0], "<", float(first.values[col]) / 2.0)])
    # the warm re-solve needs about a third of the first solve's time; a limit
    # read against the object's summed run time would already be over
    again = solve_lp(lp, 0.9 * spent)
    assert again.status == "optimal"
    assert again.objective_value < first.objective_value
