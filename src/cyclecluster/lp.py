"""Box-bounded linear programming used for relaxations and the cut loop.

A `LinearProgram` is changed in place: `add_rows` appends a block of rows
with the bounds it carries, `delete_rows` removes rows and `set_bounds`
changes column bounds.  Each LP owns one HiGHS object, loaded when the LP
is built, and every change goes to it too.  So every solve runs HiGHS's
dual simplex (Huangfu & Hall, MPC 2018) from the basis the previous solve
left, which after a bound change or added rows is still dual feasible, and
after deleting rows that were basic (slack) is still optimal.  Solves are
deterministic for a fixed sequence of changes.

HiGHS comes with scipy, as the extension module
`scipy.optimize._highspy._core`.  This module loads that file alone, under
its own name in `sys.modules`, so that the solver starts without importing
the rest of `scipy.optimize`, which would cost most of a start-up; a later
`import scipy.optimize` finds the module there and uses it.  For the same
reason `linprog`, a name only the benchmark's tracer reads, is imported
from `scipy.optimize` on its first read.

Once this module has loaded HiGHS, every `import` and `from ... import` form
of `scipy.optimize._highspy._core` still gives that module, but the
attribute chain `scipy.optimize._highspy._core` stays unset: the import
system sets a child as an attribute of its package only when it loads the
child itself.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import Any

import numpy as np

from cyclecluster.formulation import Csr, Model


def _highs_module():
    """HiGHS's extension module: the one in `sys.modules`, else loaded from
    its file in scipy's install directory and registered there."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    package = Path(importlib.util.find_spec("scipy").submodule_search_locations[0], "optimize", "_highspy")
    paths = [package / f"_core{suffix}" for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"no HiGHS extension module in {package}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_core = _highs_module()
HighsLp, HighsModelStatus, MatrixFormat, _Highs = _core.HighsLp, _core.HighsModelStatus, _core.MatrixFormat, _core._Highs


def __getattr__(name: str):
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(eq=False)
class LinearProgram:
    """maximize objective @ v  subject to  rows.lower <= rows @ v <= rows.upper,
    lo <= v <= hi.

    HiGHS solves the LP and takes the row bounds in this form as they are,
    but the rows, with their bounds and families, stay mirrored here: the
    root cut loop reads row slacks from them, the benchmark's tracer reads
    `rows.shape[0]`, and tests check residuals against them.  Each change
    makes a new `Csr` of the mirror in O(nnz) numpy work: `add_rows` stacks
    the block under the rows, and `delete_rows` takes the rows that stay.
    """

    objective: np.ndarray
    rows: Csr
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

    def add_rows(self, block: Csr) -> None:
        """Append the rows of a block over this LP's columns, with their bounds."""
        if len(block) == 0:
            return
        self.rows = Csr.stack([self.rows, block])
        indptr = block.indptr.astype(np.int32)
        indices = block.indices.astype(np.int32)
        self._highs.addRows(len(block), block.lower, block.upper, int(indptr[-1]), indptr[:-1], indices, block.data.astype(float))

    def delete_rows(self, idx: np.ndarray) -> None:
        """Delete the rows at the given positions; the rest keep their order.

        HiGHS keeps its basis when every deleted row is basic (slack), so the
        next solve starts from the last optimum.
        """
        idx = np.unique(np.asarray(idx, dtype=np.int32))  # HiGHS takes an ascending set
        if idx.size == 0:
            return
        keep = np.ones(len(self.rows), dtype=bool)
        keep[idx] = False
        self.rows = self.rows[keep]
        self._highs.deleteRows(idx.size, idx)

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
    return LinearProgram(objective=model.objective, rows=model.rows[:num_rows], lo=model.lo, hi=model.hi)


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


def _load(lp: LinearProgram):
    model = HighsLp()
    model.num_col_ = lp.ncols
    model.num_row_ = len(lp.rows)
    model.col_cost_ = -lp.objective
    model.col_lower_ = lp.lo
    model.col_upper_ = lp.hi
    model.row_lower_, model.row_upper_ = lp.rows.lower, lp.rows.upper
    matrix = model.a_matrix_
    matrix.format_ = MatrixFormat.kRowwise
    matrix.num_col_ = lp.ncols
    matrix.num_row_ = len(lp.rows)
    matrix.start_ = lp.rows.indptr
    matrix.index_ = lp.rows.indices
    matrix.value_ = lp.rows.data
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(model)
    return highs
