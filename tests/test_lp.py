import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from cyclecluster import lp as lp_mod
from cyclecluster.formulation import Csr, VariableSpace, build_cc
from cyclecluster.lp import LinearProgram, MatrixFormat, lp_relaxation, solve_lp
from cyclecluster.oracle import enumerate_optimal
from cyclecluster.separation import Cuts, separate_triangle
from conftest import random_instance


def csr(mat, lower=-np.inf, upper=np.inf, family="row") -> Csr:
    """The rows of a scipy sparse matrix or a dense array, with each row's
    bounds and family, as one value per row or one shared by all."""
    mat = sparse.csr_matrix(mat)
    k = mat.shape[0]
    return Csr(mat.data, mat.indices, mat.indptr, mat.shape[1], np.full(k, lower, dtype=float), np.full(k, upper, dtype=float), np.full(k, family))


def csr_dense(rows: Csr) -> np.ndarray:
    return sparse.csr_matrix((rows.data, rows.indices, rows.indptr), shape=rows.shape).toarray()


def tiny_lp(obj, rows, lower, upper, lo, hi):
    return LinearProgram(
        objective=np.asarray(obj, dtype=float),
        rows=csr(np.asarray(rows, dtype=float), lower, upper),
        lo=np.asarray(lo, dtype=float),
        hi=np.asarray(hi, dtype=float),
    )


def add_row(lp, cols, vals, upper):
    """Append the row vals . v[cols] <= upper."""
    lp.add_rows(Csr(np.asarray(vals, dtype=float), np.asarray(cols), np.array([0, len(cols)]), lp.ncols, np.array([-np.inf]), np.array([upper]), np.array(["cut"])))


class TestSolveLp:
    def test_simple_bound(self):
        lp = tiny_lp([1.0], [[1.0]], [-np.inf], [0.5], [0.0], [1.0])
        sol = solve_lp(lp)
        assert sol.optimal
        assert sol.objective_value == pytest.approx(0.5)

    def test_infeasible(self):
        lp = tiny_lp([1.0], [[1.0], [1.0]], [0.6, -np.inf], [np.inf, 0.4], [0.0], [1.0])
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
        assert np.all(lhs >= lp.rows.lower - 1e-7)
        assert np.all(lhs <= lp.rows.upper + 1e-7)
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
        lp = tiny_lp([1.0], [[1.0]], [-np.inf], [0.5], [0.0], [1.0])
        prior = solve_lp(lp)
        add_row(lp, [0], [1.0], 0.9)
        after = solve_lp(lp)
        assert after.objective_value == pytest.approx(prior.objective_value)

    def test_violated_cut_weakly_decreases(self):
        inst = random_instance(5, 3, seed=4)
        lp = lp_relaxation(build_cc(inst))
        prior = solve_lp(lp)
        # cap the largest objective column at half its LP value
        col = int(np.argmax(lp.objective * prior.values))
        add_row(lp, [col], [1.0], float(prior.values[col]) / 2.0)
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
            add_row(lp, cols, vals, float(rng.uniform(0.5, 2.0)))
            lo, hi = model.lo.copy(), model.hi.copy()
            fixed = rng.choice(num_x, size=int(rng.integers(0, 5)), replace=False)
            lo[fixed] = hi[fixed] = rng.integers(0, 2, size=fixed.size)
            lp.set_bounds(lo, hi)
            warm = solve_lp(lp)
            cold = solve_lp(LinearProgram(lp.objective, lp.rows, lo, hi))
            assert warm.status == cold.status
            if cold.optimal:
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-7)
            statuses.add(cold.status)
        assert statuses == {"optimal", "infeasible"}


def highs_rows(lp):
    """The rows HiGHS holds, as (row lengths, columns, values) with each
    row's entries in ascending column order, and its row bounds."""
    model = lp._highs.getLp()
    a = model.a_matrix_
    outer = np.repeat(np.arange(len(a.start_) - 1), np.diff(a.start_))
    rows, cols = (outer, np.asarray(a.index_)) if a.format_ == MatrixFormat.kRowwise else (np.asarray(a.index_), outer)
    order = np.lexsort((cols, rows))
    lower, upper = np.asarray(model.row_lower_), np.asarray(model.row_upper_)
    return (np.bincount(rows, minlength=a.num_row_), cols[order], np.asarray(a.value_)[order]), lower, upper


def by_column(rows: Csr):
    """`highs_rows`'s form of a block: row lengths, columns, values."""
    order = np.lexsort((rows.indices, rows.entry_rows))
    return np.diff(rows.indptr), rows.indices[order], rows.data[order]


def random_changes(lp, rng, rounds):
    """Random blocks of `<=` and `>=` rows added, then random rows deleted, per round."""
    for _ in range(rounds):
        k = int(rng.integers(1, 4))
        free = rng.choice(np.array([-np.inf, np.inf]), size=k)  # the side each row leaves unbounded
        bound = rng.uniform(0.5, 2.0, size=k)
        mat = sparse.random(k, lp.ncols, density=0.1, format="csr", random_state=rng)
        lp.add_rows(csr(mat, np.minimum(free, bound), np.maximum(free, bound)))
        lp.delete_rows(rng.choice(len(lp.rows), size=int(rng.integers(1, 5)), replace=False))
        yield


class TestDeleteRows:
    def test_deleting_slack_rows_keeps_the_optimum(self):
        inst = random_instance(9, 4, seed=2)
        lp = lp_relaxation(build_cc(inst))
        first = solve_lp(lp)
        slack = lp.rows.upper - lp.rows @ first.values
        idx = np.flatnonzero(np.isinf(lp.rows.lower) & (slack > 1e-6))
        assert 0 < idx.size < lp.rows.shape[0]
        lp.delete_rows(idx)
        assert lp.rows.shape[0] == lp._highs.getNumRow() == len(lp.rows.upper) == slack.size - idx.size
        again = solve_lp(lp)
        assert again.optimal
        assert again.iterations == 0  # every deleted row was basic, so the basis stays optimal
        assert again.objective_value == pytest.approx(first.objective_value, rel=1e-12)

    def test_mirror_matches_highs_row_for_row(self):
        rng = np.random.default_rng(5)
        inst = random_instance(6, 3, seed=1)
        lp = lp_relaxation(build_cc(inst))
        solve_lp(lp)
        for _ in random_changes(lp, rng, 6):
            solve_lp(lp)
            rows, lower, upper = highs_rows(lp)
            assert lp.rows.shape == (lp._highs.getNumRow(), lp.ncols)
            # the same row lengths, and in each row the same columns with bitwise the same values
            (lengths, cols, vals), (our_lengths, our_cols, our_vals) = rows, by_column(lp.rows)
            assert np.array_equal(lengths, our_lengths) and np.array_equal(cols, our_cols)
            assert vals.tobytes() == our_vals.tobytes()
            assert np.array_equal(lower, lp.rows.lower)
            assert np.array_equal(upper, lp.rows.upper)


class TestCsr:
    def test_matvec_is_scipys_bit_for_bit(self):
        """`Csr @ v` sums each row as scipy's CSR product does, on the linking
        rows of two models and on an LP mirror after random changes."""
        rng = np.random.default_rng(8)

        def check(rows: Csr):
            theirs = sparse.csr_matrix((rows.data, rows.indices, rows.indptr), shape=rows.shape)
            for v in (rng.uniform(-1.0, 1.0, rows.ncols), rng.uniform(0.0, 1.0, rows.ncols) ** 3):
                assert (rows @ v).tobytes() == (theirs @ v).tobytes()

        for n, m in ((10, 3), (14, 5)):
            model = build_cc(random_instance(n, m, seed=n))
            link = model.rows[model.core_rows :]
            assert len(link) == model.nrows - model.core_rows > 0
            check(link)
            check(link)  # again, with the cached rows of the entries
        lp = lp_relaxation(build_cc(random_instance(6, 3, seed=1)))
        for _ in random_changes(lp, rng, 8):
            check(lp.rows)

    def test_take_slice_mask_and_stack(self):
        mat = sparse.random(7, 9, density=0.4, format="csr", random_state=np.random.default_rng(2))
        lower, upper, family = np.arange(7) - 10.0, np.arange(7) + 0.5, np.array(list("abcdefg"))
        rows = csr(mat, lower, upper, family)
        assert rows.shape == (7, 9) and rows.nnz == mat.nnz
        dense = mat.toarray()

        def assert_rows(block, idx):
            """`block` holds the rows at `idx`, with their bounds and families."""
            assert block.shape == dense[idx].shape
            assert np.array_equal(csr_dense(block), dense[idx])
            assert np.array_equal(block.lower, lower[idx]) and np.array_equal(block.upper, upper[idx])
            assert block.family.tolist() == family[idx].tolist()

        for key in (slice(2, 6), slice(None, 3), slice(5, 1), np.array([4, 0, 4]), np.arange(7) % 3 == 0):
            assert_rows(rows[key], key)
            assert type(rows[key]) is Csr
        both = Csr.stack([rows[:3], rows.take(np.array([6, 1]))])
        assert_rows(both, [0, 1, 2, 6, 1])
        assert Csr.stack([rows]) is rows
        assert Csr.stack([rows[:0], rows, rows[5:5]]) is rows  # one part with rows comes back as it is
        empty = rows[:0]
        assert Csr.stack([empty, rows[3:3]]) is empty  # so does the first of parts that all have none

        # stacking cuts with plain rows gives a plain Csr; Cuts.stack keeps every cut field
        space = VariableSpace(random_instance(6, 4, seed=3))
        cuts = separate_triangle(space, np.random.default_rng(4).uniform(0.0, 1.0, space.ncols))
        assert len(cuts) > 3
        model = build_cc(space.inst)
        links = model.rows[model.core_rows :][:2]
        mixed = Csr.stack([cuts, links])
        assert type(mixed) is Csr and np.array_equal(csr_dense(mixed), np.vstack([csr_dense(cuts), csr_dense(links)]))
        assert np.array_equal(mixed.lower, np.concatenate([cuts.lower, links.lower]))
        assert np.array_equal(mixed.upper, np.concatenate([cuts.upper, links.upper]))
        assert mixed.family.tolist() == cuts.family.tolist() + links.family.tolist()
        assert not hasattr(mixed, "violation") and not hasattr(mixed, "keys")
        again = Cuts.stack([cuts[2:], cuts[:2]])
        assert type(again) is Cuts
        order = np.r_[2 : len(cuts), 0, 1]
        for name in Cuts.row_fields:
            assert getattr(again, name).tolist() == getattr(cuts, name)[order].tolist(), name


def run_python(code: str) -> str:
    """Run `code` in a fresh interpreter with this checkout's sources first on
    the path; returns its standard output."""
    src = str(Path(lp_mod.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_solver_imports_neither_scipy_optimize_nor_scipy_sparse():
    out = run_python(
        """
        import sys
        import cyclecluster, cyclecluster.cli
        from cyclecluster.generator import generate
        inst, _ = generate(6, 3, rng_seed=1)
        assert cyclecluster.solve(inst).status == "optimal"
        core = "scipy.optimize._highspy._core"
        print("scipy.optimize" in sys.modules, "scipy.sparse" in sys.modules)
        print([name for name in sys.modules if name.startswith("scipy") and name != core and not name.startswith(core + ".")])
        """
    )
    # HiGHS's extension module, and what it registers under its name, is all of scipy that loads
    assert out.splitlines() == ["False False", "[]"]


@pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy_optimize_first", "lp_first"])
def test_scipy_and_the_solver_share_one_highs_binding(scipy_first):
    out = run_python(
        f"""
        import sys
        if {scipy_first}:
            import scipy.optimize
        import cyclecluster.lp as lp
        assert sys.modules["scipy.optimize._highspy._core"] is lp._core  # one module object, under its own name
        import scipy.optimize
        import scipy.optimize._linprog_highs
        from scipy.optimize._highspy._core import _Highs, HighsModelStatus
        assert _Highs is lp._Highs and HighsModelStatus is lp.HighsModelStatus
        assert scipy.optimize._linprog_highs.HighsModelStatus is lp.HighsModelStatus  # scipy's linprog uses it too
        res = scipy.optimize.linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[3.0], bounds=[(0, 2), (0, 2)], method="highs")
        assert res.status == 0 and abs(res.fun + 5.0) < 1e-9, res
        assert lp.linprog is scipy.optimize.linprog  # the name the benchmark's tracer wraps
        print("ok")
        """
    )
    assert out.strip() == "ok"


def test_private_highs_binding_contract():
    """Pins every method of scipy's private _Highs that the warm path calls."""
    from scipy.optimize._highspy._core import HighsModelStatus

    lp = tiny_lp([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [-np.inf, -np.inf], [4.0, 1.0], [0.0, 0.0], [5.0, 5.0])
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

    # deleting x0 - x1 <= 1 and x0 + x1 <= 3 leaves x0 + x1 <= 4, so x1 = 4 fits with x0 = 0
    highs.deleteRows(2, np.array([1, 2], dtype=np.int32))
    assert highs.getNumRow() == 1
    highs.run()
    assert highs.getModelStatus() == HighsModelStatus.kOptimal
    assert list(highs.getSolution().col_value) == pytest.approx([0.0, 4.0])


def test_time_limit_is_counted_from_each_solve():
    inst = random_instance(14, 5, seed=1)
    lp = lp_relaxation(build_cc(inst))
    first = solve_lp(lp)
    spent = lp._highs.getRunTime()
    col = int(np.argmax(lp.objective * first.values))
    add_row(lp, [col], [1.0], float(first.values[col]) / 2.0)
    # the warm re-solve needs about a third of the first solve's time; a limit
    # read against the object's summed run time would already be over
    again = solve_lp(lp, 0.9 * spent)
    assert again.status == "optimal"
    assert again.objective_value < first.objective_value
