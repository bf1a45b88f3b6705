"""Reference model builders used only by the test suite.

`build_cc` and `build_rlt` as `cyclecluster.formulation` had them before
their rows were built from column tables: one Python call per row through a
row builder, each row with a sense and a right-hand side.  The bounds a
reference model carries come from those senses as the LP once computed them:
a `<` row is [-inf, rhs], a `>` row [rhs, inf] and an `=` row [rhs, rhs].
Nothing here is shared with the production builders beyond the column
layouts, so a test can hold them to the same rows, bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from cyclecluster.formulation import Csr, Model, RltSpace, VariableSpace
from cyclecluster.instance import Instance

LESS_EQUAL = "<"
EQUAL = "="
GREATER_EQUAL = ">"


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
        rows = Csr(np.asarray(self.data, dtype=float), np.asarray(self.cols, dtype=np.int32), np.asarray(self.indptr, dtype=np.int32), ncols)
        senses, rhs = np.asarray(self.senses), np.asarray(self.rhs, dtype=float)
        row_lower = np.where(senses == LESS_EQUAL, -np.inf, rhs)
        row_upper = np.where(senses == GREATER_EQUAL, np.inf, rhs)
        return Model(rows=rows, row_lower=row_lower, row_upper=row_upper, row_family=self.family, **fields)


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
        integrality=np.ones(space.ncols, dtype=bool),
        lo=np.zeros(space.ncols),
        hi=np.ones(space.ncols),
        core_rows=core_rows,
    )


def build_rlt(inst: Instance) -> Model:
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

    integrality = np.zeros(space.ncols, dtype=bool)
    integrality[: space.num_x] = True
    return rb.model(
        space.ncols,
        space=space,
        objective=obj,
        integrality=integrality,
        lo=np.zeros(space.ncols),
        hi=np.ones(space.ncols),
    )
