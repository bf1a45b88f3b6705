"""Box-bounded linear programming used for relaxations and the cut loop.

A `LinearProgram` is changed in place: `add_rows` appends a CSR block of
rows, `delete_rows` removes rows and `set_bounds` changes column bounds.
Each LP owns one HiGHS object, loaded when the LP is built, and every change
goes to it too.  So every solve runs HiGHS's dual simplex (Huangfu & Hall,
MPC 2018) from the basis the previous solve left, which after a bound change
or added rows is still dual feasible, and after deleting rows that were
basic (slack) is still optimal.  Solves are deterministic for a fixed
sequence of changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog  # noqa: F401 - only the benchmark's tracer uses this name
from scipy.optimize._highspy._core import HighsLp, HighsModelStatus, MatrixFormat, _Highs

from cyclecluster.formulation import GREATER_EQUAL, LESS_EQUAL, Model


@dataclass(eq=False)
class LinearProgram:
    """maximize objective @ v  subject to  rows (sense) rhs,  lo <= v <= hi.

    HiGHS solves the LP, but the rows, senses and rhs stay mirrored here: the
    root cut loop reads row slacks from them, the benchmark's tracer reads
    `rows.shape[0]`, and tests check residuals against them.  The mirror is
    kept on its raw CSR arrays: `add_rows` appends a block's data, indices and
    shifted indptr, and `delete_rows` keeps the entries of the rows that
    stay (`take_rows`), so each change costs O(nnz) numpy work and builds one
    CSR matrix, with the entries in the order `sparse.vstack` and `rows[keep]`
    would give.
    """

    objective: np.ndarray
    rows: sparse.csr_matrix
    senses: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    _highs: Any = field(init=False, repr=False)

    def __post_init__(self):
        # set_bounds writes into lo and hi, so they must not alias the caller's arrays
        self.lo = np.array(self.lo, dtype=float)
        self.hi = np.array(self.hi, dtype=float)
        self._highs = _load(self)

    @property
    def ncols(self) -> int:
        return self.objective.shape[0]

    def add_rows(self, block, senses: np.ndarray, rhs: np.ndarray) -> None:
        """Append the rows of a block over this LP's columns: anything that
        holds CSR arrays, as `stack_rows` takes."""
        num_rows = block.indptr.size - 1
        if num_rows == 0:
            return
        senses, rhs = np.asarray(senses), np.asarray(rhs, dtype=float)
        self._set_rows(*stack_rows([self.rows, block]))
        self.senses = np.concatenate([self.senses, senses])
        self.rhs = np.concatenate([self.rhs, rhs])
        lower, upper = _row_bounds(senses, rhs)
        indptr = block.indptr.astype(np.int32)
        indices = block.indices.astype(np.int32)
        self._highs.addRows(num_rows, lower, upper, int(indptr[-1]), indptr[:-1], indices, block.data.astype(float))

    def delete_rows(self, idx: np.ndarray) -> None:
        """Delete the rows at the given positions; the rest keep their order.

        HiGHS keeps its basis when every deleted row is basic (slack), so the
        next solve starts from the last optimum.
        """
        idx = np.unique(np.asarray(idx, dtype=np.int32))  # HiGHS takes an ascending set
        if idx.size == 0:
            return
        keep = np.ones(self.rows.shape[0], dtype=bool)
        keep[idx] = False
        self._set_rows(*take_rows(self.rows, np.flatnonzero(keep)))
        self.senses = self.senses[keep]
        self.rhs = self.rhs[keep]
        self._highs.deleteRows(idx.size, idx)

    def _set_rows(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> None:
        """Make the mirror the CSR matrix of these raw arrays, taken as they are."""
        self.rows = sparse.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, self.ncols), copy=False)

    def set_bounds(self, lo: np.ndarray, hi: np.ndarray) -> None:
        changed = np.flatnonzero((lo != self.lo) | (hi != self.hi)).astype(np.int32)
        if changed.size == 0:
            return
        self.lo[changed] = lo[changed]
        self.hi[changed] = hi[changed]
        self._highs.changeColsBounds(changed.size, changed, self.lo[changed], self.hi[changed])


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "time_limit" | "error"
    values: np.ndarray | None
    objective_value: float | None
    iterations: int  # simplex iterations of this solve

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def lp_relaxation(model: Model, num_rows: int | None = None) -> LinearProgram:
    """The LP relaxation of the model's first `num_rows` rows, all by default."""
    head = slice(num_rows)
    return LinearProgram(
        objective=model.objective,
        rows=model.rows[head],
        senses=model.senses[head],
        rhs=model.rhs[head],
        lo=model.lo,
        hi=model.hi,
    )


def solve_lp(lp: LinearProgram, time_limit: float | None = None) -> LpSolution:
    """Solve to optimality, or report infeasibility, the time limit, or any
    other end of the run as "error", whose bound must not be trusted."""
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
    return LpSolution("error", None, None, iterations)


class CsrRows(NamedTuple):
    """The raw CSR arrays of some rows."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def take_rows(rows, idx: np.ndarray) -> CsrRows:
    """The rows at `idx`, in that order, of anything that holds CSR arrays
    (`data`, `indices`, `indptr`): the same entries that `rows[idx]` holds
    for a csr_matrix, without scipy's indexing machinery."""
    starts = rows.indptr[idx]
    lengths = rows.indptr[idx + 1] - starts
    indptr = np.zeros(idx.size + 1, dtype=rows.indptr.dtype)
    np.cumsum(lengths, out=indptr[1:])
    entries = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
    return CsrRows(rows.data[entries], rows.indices[entries], indptr)


def stack_rows(parts: Sequence) -> CsrRows:
    """The rows of every part in turn; a part is anything that holds CSR
    arrays whose `indptr` starts at 0: a csr_matrix, `CsrRows` or
    `separation.Cuts`."""
    if len(parts) == 1:
        return CsrRows(parts[0].data, parts[0].indices, parts[0].indptr)
    offsets = accumulate((int(p.indptr[-1]) for p in parts), initial=0)  # Python ints keep each indptr's dtype
    return CsrRows(
        np.concatenate([p.data for p in parts]),
        np.concatenate([p.indices for p in parts]),
        np.concatenate([parts[0].indptr[:1]] + [p.indptr[1:] + offset for p, offset in zip(parts, offsets)]),
    )


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
