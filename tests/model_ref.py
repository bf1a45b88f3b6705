"""Model builders used only by the test suite.

`build_cc` as `cyclecluster.formulation` had it before its rows were built
from column tables: one Python call per row through a row builder, each row
with a sense and a right-hand side.  The bounds a reference model carries
come from those senses as the LP once computed them: a `<` row is
[-inf, rhs], a `>` row [rhs, inf] and an `=` row [rhs, rhs].  Nothing here
is shared with the production builder beyond the column layout, so a test
can hold the two to the same rows, bit for bit.

`build_rlt` is the product-variable (RLT) model, built the same way, the
only one there is: it serves criterion 2's root-bound comparison and the
tests of its own.  Each assignment equation is multiplied with every x[j,t]
and the bilinear terms are replaced by w[i,j,s,t] in [0, 1], where the
diagonal products w[i,j,s,s] and w[j,i,s,s] share one variable.  `RltSpace`
maps them to columns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from cyclecluster.formulation import Csr, Model, VariableSpace
from cyclecluster.instance import Instance

LESS_EQUAL = "<"
EQUAL = "="
GREATER_EQUAL = ">"


def point_feasible(model: Model, point: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether `point` satisfies every row and column bound of `model`, within `tol`."""
    lhs = model.rows @ point
    return bool(
        np.all(lhs >= model.rows.lower - tol)
        and np.all(lhs <= model.rows.upper + tol)
        and np.all(point >= model.lo - tol)
        and np.all(point <= model.hi + tol)
    )


class RltSpace:
    """Column layout of the product-variable model: the x columns,
    vertex-major, then per weighted pair (i, j), i < j, the (i, j) products
    and then the (j, i) ones off the shared diagonal.

    `wcol[i, j, s, t]` is the column of w[i,j,s,t], -1 where the pair
    carries no weight.
    """

    def __init__(self, inst: Instance):
        n, m = inst.n, inst.m
        self.n, self.m = n, m
        self.pairs = VariableSpace(inst).pairs
        self.num_x = n * m
        self.wcol = np.full((n, n, m, m), -1, dtype=np.intp)
        off_diagonal = ~np.eye(m, dtype=bool)
        diagonal = np.arange(m)
        col = self.num_x
        for (i, j) in self.pairs:
            self.wcol[i, j] = col + np.arange(m * m).reshape(m, m)
            col += m * m
            self.wcol[j, i][off_diagonal] = col + np.arange(m * m - m)
            col += m * m - m
            self.wcol[j, i, diagonal, diagonal] = self.wcol[i, j, diagonal, diagonal]
        self.ncols = col

    def x(self, i: int, s: int) -> int:
        return i * self.m + s

    def w(self, i: int, j: int, s: int, t: int) -> int:
        col = int(self.wcol[i, j, s, t])
        if col < 0:
            raise KeyError(f"no column for {(i, j, s, t)}: the pair carries no weight")
        return col


class RowBuilder:
    def __init__(self):
        self.data: list[float] = []
        self.cols: list[int] = []
        self.indptr: list[int] = [0]
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.family: list[str] = []

    def add(self, cols: Sequence[int], vals: Sequence[float], sense: str, rhs: float, family: str) -> None:
        self.cols.extend(cols)
        self.data.extend(vals)
        self.indptr.append(len(self.cols))
        self.senses.append(sense)
        self.rhs.append(rhs)
        self.family.append(family)

    def model(self, ncols: int, **fields) -> Model:
        senses, rhs = np.asarray(self.senses), np.asarray(self.rhs, dtype=float)
        lower = np.where(senses == LESS_EQUAL, -np.inf, rhs)
        upper = np.where(senses == GREATER_EQUAL, np.inf, rhs)
        indices, indptr = np.asarray(self.cols, dtype=np.int32), np.asarray(self.indptr, dtype=np.int32)
        rows = Csr(np.asarray(self.data, dtype=float), indices, indptr, ncols, lower, upper, np.asarray(self.family))
        return Model(rows=rows, **fields)


def build_cc(inst: Instance) -> Model:
    space = VariableSpace(inst)
    n, m = inst.n, inst.m
    alpha = inst.alpha
    pi, pj = space.pair_i, space.pair_j

    obj = np.zeros(space.ncols)
    obj[space.ycol[pi, pj]] = (1.0 - alpha) * inst.q_plus[pi, pj]
    obj[space.zcol[pi, pj]] = alpha * inst.q_minus[pi, pj]
    obj[space.zcol[pj, pi]] = alpha * inst.q_minus[pj, pi]

    rb = RowBuilder()
    for i in range(n):
        rb.add([space.x(i, s) for s in range(m)], [1.0] * m, EQUAL, 1.0, "assign")
    for s in range(m):
        rb.add([space.x(i, s) for i in range(n)], [1.0] * n, GREATER_EQUAL, 1.0, "cover")
    for (i, j) in space.pairs:
        rb.add([space.y(i, j), space.z(i, j), space.z(j, i)], [1.0, 1.0, 1.0], LESS_EQUAL, 1.0, "pair")
    core_rows = len(rb.rhs)
    for (a, b) in space.pairs:
        for (i, j) in ((a, b), (b, a)):
            yij, zij = space.y(i, j), space.z(i, j)
            for s in range(m):
                succ, pred = (s + 1) % m, (s - 1) % m
                rb.add(
                    [space.x(i, s), space.x(j, s), yij, zij, space.x(j, succ), space.x(i, pred)],
                    [1.0, 1.0, -1.0, 1.0, -1.0, -1.0],
                    LESS_EQUAL,
                    1.0,
                    "same_link",
                )
                rb.add(
                    [space.x(i, s), space.x(j, succ), zij, yij, space.x(j, s), space.x(i, succ)],
                    [1.0, 1.0, -1.0, 1.0, -1.0, -1.0],
                    LESS_EQUAL,
                    1.0,
                    "consec_link",
                )

    return rb.model(
        space.ncols,
        space=space,
        objective=obj,
        lo=np.zeros(space.ncols),
        hi=np.ones(space.ncols),
        core_rows=core_rows,
    )


def build_rlt(inst: Instance) -> Model:
    """The product-variable model: x binary, w continuous in [0, 1], every
    row a core row."""
    space = RltSpace(inst)
    n, m = inst.n, inst.m
    alpha = inst.alpha

    obj = np.zeros(space.ncols)
    for (i, j) in space.pairs:
        for s in range(m):
            obj[space.w(i, j, s, s)] += (1.0 - alpha) * inst.q_plus[i, j]
            obj[space.w(i, j, s, (s + 1) % m)] += alpha * inst.q_minus[i, j]
            obj[space.w(j, i, s, (s + 1) % m)] += alpha * inst.q_minus[j, i]

    rb = RowBuilder()
    for i in range(n):
        rb.add([space.x(i, s) for s in range(m)], [1.0] * m, EQUAL, 1.0, "assign")
    for s in range(m):
        rb.add([space.x(i, s) for i in range(n)], [1.0] * n, GREATER_EQUAL, 1.0, "cover")
    for (a, b) in space.pairs:
        for (i, j) in ((a, b), (b, a)):
            for t in range(m):
                cols = [space.w(i, j, s, t) for s in range(m)] + [space.x(j, t)]
                vals = [1.0] * m + [-1.0]
                rb.add(cols, vals, EQUAL, 0.0, "link")

    return rb.model(
        space.ncols,
        space=space,
        objective=obj,
        lo=np.zeros(space.ncols),
        hi=np.ones(space.ncols),
        core_rows=len(rb.rhs),
    )
