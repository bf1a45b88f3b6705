"""Box-bounded linear programming used for relaxations and the cut loop.

A `LinearProgram` is changed in place: `add_rows` appends rows and
`set_bounds` changes column bounds.  Solving goes to one HiGHS object per LP,
loaded on the first solve and kept, so every later solve starts from the
basis the previous one left, which after a bound change or added rows is
still dual feasible.
Builds of scipy without the `_Highs` binding (before 1.15) solve every time
cold with `scipy.optimize.linprog` on the row mirror the LP always carries.
Both paths are deterministic for a fixed sequence of changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from cyclecluster.formulation import EQUAL, GREATER_EQUAL, LESS_EQUAL, Model

try:
    from scipy.optimize._highspy._core import HighsLp, HighsModelStatus, MatrixFormat, _Highs
except ImportError:  # pragma: no cover - scipy < 1.15 ships no _Highs binding
    _Highs = None

RowSpec = tuple[Sequence[int], Sequence[float], str, float]


class LpNumericalError(RuntimeError):
    """The LP solver failed numerically; the bound must not be trusted."""


@dataclass(eq=False)
class LinearProgram:
    """maximize objective @ v  subject to  rows (sense) rhs,  lo <= v <= hi."""

    objective: np.ndarray
    rows: sparse.csr_matrix
    senses: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    _highs: Any = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # set_bounds writes into lo and hi, so they must not alias the caller's arrays
        self.lo = np.array(self.lo, dtype=float)
        self.hi = np.array(self.hi, dtype=float)

    @property
    def ncols(self) -> int:
        return self.objective.shape[0]

    def add_rows(self, new_rows: Sequence[RowSpec]) -> None:
        if not new_rows:
            return
        data, cols, indptr = [], [], [0]
        senses, rhs = [], []
        for row_cols, row_vals, sense, row_rhs in new_rows:
            cols.extend(row_cols)
            data.extend(row_vals)
            indptr.append(len(cols))
            senses.append(sense)
            rhs.append(row_rhs)
        extra = sparse.csr_matrix(
            (np.asarray(data, dtype=float), np.asarray(cols, dtype=np.int32), np.asarray(indptr, dtype=np.int32)),
            shape=(len(rhs), self.ncols),
        )
        senses, rhs = np.asarray(senses), np.asarray(rhs, dtype=float)
        self.rows = sparse.vstack([self.rows, extra], format="csr")
        self.senses = np.concatenate([self.senses, senses])
        self.rhs = np.concatenate([self.rhs, rhs])
        if self._highs is not None:
            lower, upper = _row_bounds(senses, rhs)
            self._highs.addRows(len(rhs), lower, upper, extra.nnz, extra.indptr[:-1], extra.indices, extra.data)

    def set_bounds(self, lo: np.ndarray, hi: np.ndarray) -> None:
        changed = np.flatnonzero((lo != self.lo) | (hi != self.hi)).astype(np.int32)
        if changed.size == 0:
            return
        self.lo[changed] = lo[changed]
        self.hi[changed] = hi[changed]
        if self._highs is not None:
            self._highs.changeColsBounds(changed.size, changed, self.lo[changed], self.hi[changed])


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "time_limit"
    values: np.ndarray | None
    objective_value: float | None
    iterations: int  # simplex iterations of this solve

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def lp_relaxation(model: Model) -> LinearProgram:
    return LinearProgram(
        objective=model.objective,
        rows=model.rows,
        senses=model.senses,
        rhs=model.rhs,
        lo=model.lo,
        hi=model.hi,
    )


def solve_lp(lp: LinearProgram, time_limit: float | None = None) -> LpSolution:
    """Solve to optimality, or report infeasibility or the time limit; numerical trouble raises."""
    if _Highs is None:
        return _solve_cold(lp, time_limit)
    return _solve_warm(lp, time_limit)


def _row_bounds(senses: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lower = np.where(senses == LESS_EQUAL, -np.inf, rhs)
    upper = np.where(senses == GREATER_EQUAL, np.inf, rhs)
    return lower, upper


def _load(lp: LinearProgram):
    model = HighsLp()
    model.num_col_ = lp.ncols
    model.num_row_ = lp.rows.shape[0]
    model.col_cost_ = -lp.objective
    model.col_lower_ = lp.lo
    model.col_upper_ = lp.hi
    model.row_lower_, model.row_upper_ = _row_bounds(lp.senses, lp.rhs)
    matrix = model.a_matrix_
    matrix.format_ = MatrixFormat.kRowwise
    matrix.num_col_ = lp.ncols
    matrix.num_row_ = lp.rows.shape[0]
    matrix.start_ = lp.rows.indptr
    matrix.index_ = lp.rows.indices
    matrix.value_ = lp.rows.data
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(model)
    return highs


def _solve_warm(lp: LinearProgram, time_limit: float | None) -> LpSolution:
    if lp._highs is None:
        lp._highs = _load(lp)
    highs = lp._highs
    # HiGHS compares time_limit with the object's run time summed over all its runs.
    highs.setOptionValue("time_limit", math.inf if time_limit is None else highs.getRunTime() + time_limit)
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    iterations = int(info.simplex_iteration_count)
    if status == HighsModelStatus.kOptimal:
        values = np.asarray(highs.getSolution().col_value)
        return LpSolution("optimal", values, float(-info.objective_function_value), iterations)
    # every column is boxed, so "unbounded or infeasible" can only be infeasible
    if status in (HighsModelStatus.kInfeasible, HighsModelStatus.kUnboundedOrInfeasible):
        return LpSolution("infeasible", None, None, iterations)
    if status == HighsModelStatus.kTimeLimit:
        return LpSolution("time_limit", None, None, iterations)
    raise LpNumericalError(f"LP solve failed: {highs.modelStatusToString(status)}")


def _solve_cold(lp: LinearProgram, time_limit: float | None) -> LpSolution:
    le = lp.senses == LESS_EQUAL
    ge = lp.senses == GREATER_EQUAL
    eq = lp.senses == EQUAL
    ub_mask = le | ge
    a_ub = b_ub = None
    if ub_mask.any():
        flip = np.where(ge[ub_mask], -1.0, 1.0)
        a_ub = sparse.diags(flip) @ lp.rows[ub_mask]
        b_ub = flip * lp.rhs[ub_mask]
    a_eq = b_eq = None
    if eq.any():
        a_eq = lp.rows[eq]
        b_eq = lp.rhs[eq]
    res = linprog(
        c=-lp.objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lp.lo, lp.hi]),
        method="highs",
        options={} if time_limit is None else {"time_limit": time_limit},
    )
    iterations = int(res.nit)
    if res.status == 0:
        return LpSolution("optimal", np.asarray(res.x), float(-res.fun), iterations)
    if res.status == 2:
        return LpSolution("infeasible", None, None, iterations)
    if res.status == 1 and time_limit is not None:  # no iteration limit is set, so this is the time limit
        return LpSolution("time_limit", None, None, iterations)
    raise LpNumericalError(f"LP solve failed (status {res.status}): {res.message}")
