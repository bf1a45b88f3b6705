"""Binary programming models for cycle clustering.

Two formulations are built over one instance:

* the compact model with assignment variables x[i,s], same-cluster variables
  y[i,j] (stored for i < j) and consecutive-cluster variables z[i,j] for all
  ordered pairs, and
* the product-variable model obtained by multiplying each assignment equation
  with every x[j,t] and replacing the bilinear terms by w[i,j,s,t] in [0,1],
  where the diagonal products w[i,j,s,s] and w[j,i,s,s] share one variable.

Variables y/z (resp. w) for a pair are created only when the pair carries
weight in at least one direction; zero-weight pairs cannot contribute to the
objective and their cluster relation is left unconstrained.

Variables are plain column indices.  `VariableSpace` maps vertex pairs to the
y/z columns through n x n arrays (`RltSpace` to the w columns through an
n x n x m x m array), and holds the one place readable names are made:
x_i_s, y_i_j with i < j, and z_i_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Sequence

import numpy as np
from scipy import sparse

from cyclecluster.instance import Clustering, Instance, ParameterError

LESS_EQUAL = "<"
EQUAL = "="
GREATER_EQUAL = ">"


class ConversionError(ValueError):
    """A point cannot be interpreted as an integral feasible clustering."""


class _Layout:
    """Column layout head shared by both models: the x columns, vertex-major,
    then one block of columns per pair (i, j), i < j, that carries weight."""

    def __init__(self, inst: Instance):
        # With two clusters both orderings are "consecutive" at once, which the
        # z-variables cannot express; the cycle formulations need m >= 3.
        if inst.m < 3:
            raise ParameterError(f"cycle formulations require m >= 3, got m={inst.m}")
        self.inst = inst
        self.n, self.m = inst.n, inst.m
        self.pair_i, self.pair_j = np.nonzero(np.triu(inst.q_plus > 0.0, 1))
        self.pairs: list[tuple[int, int]] = list(zip(self.pair_i.tolist(), self.pair_j.tolist()))
        self.num_x = self.n * self.m

    def x(self, i: int, s: int) -> int:
        return i * self.m + s


def _column(table: np.ndarray, *key: int) -> int:
    col = int(table[key])
    if col < 0:
        raise KeyError(f"no column for {key}: the pair carries no weight")
    return col


class VariableSpace(_Layout):
    """Column layout shared by models, LP points, separation and cuts.

    Per weighted pair the block is [y(i,j), z(i,j), z(j,i)]; `ycol` (symmetric)
    and `zcol` map a vertex pair to its column, -1 where the pair carries no
    weight.  For an all-positive weight matrix this is the full variable
    universe of the compact model.
    """

    def __init__(self, inst: Instance):
        super().__init__(inst)
        n, pi, pj = self.n, self.pair_i, self.pair_j
        base = self.num_x + 3 * np.arange(len(self.pairs))
        self.ncols = self.num_x + 3 * len(self.pairs)
        self.ycol = np.full((n, n), -1, dtype=np.intp)
        self.ycol[pi, pj] = self.ycol[pj, pi] = base
        self.zcol = np.full((n, n), -1, dtype=np.intp)
        self.zcol[pi, pj] = base + 1
        self.zcol[pj, pi] = base + 2
        # Ranks the columns as their names sort when read as (kind, i, j)
        # tuples: x, then y, then z, each by (i, j); cut order breaks ties by it.
        self.name_rank = np.empty(self.ncols, dtype=np.intp)
        self.name_rank[: self.num_x] = np.arange(self.num_x)
        self.name_rank[base] = n * n + pi * n + pj
        self.name_rank[base + 1] = 2 * n * n + pi * n + pj
        self.name_rank[base + 2] = 2 * n * n + pj * n + pi

    def has_pair(self, i: int, j: int) -> bool:
        return bool(self.ycol[i, j] >= 0)

    def y(self, i: int, j: int) -> int:
        return _column(self.ycol, i, j)

    def z(self, i: int, j: int) -> int:
        return _column(self.zcol, i, j)

    def name(self, col: int) -> str:
        """Readable column name: x_i_s, y_i_j with i < j, or z_i_j."""
        if col < self.num_x:
            return "x_%d_%d" % divmod(col, self.m)
        k, offset = divmod(col - self.num_x, 3)
        i, j = self.pairs[k]
        return ("y_%d_%d" % (i, j), "z_%d_%d" % (i, j), "z_%d_%d" % (j, i))[offset]

    @cached_property
    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masks over (i, j, k): three distinct vertices whose three pairs all
        carry weight, then that set with i < k, then with j < k.  Triangle
        separation reads them on every call, so they are built once."""
        idx = np.arange(self.n)
        E = self.ycol >= 0
        distinct = (
            (idx[:, None, None] != idx[None, :, None])
            & (idx[None, :, None] != idx[None, None, :])
            & (idx[:, None, None] != idx[None, None, :])
        )
        # all_pairs[i,j,k] requires the pairs (i,j), (j,k) and (i,k) to exist
        base = distinct & E[:, :, None] & E[None, :, :] & E[:, None, :]
        return base, base & (idx[:, None, None] < idx[None, None, :]), base & (idx[None, :, None] < idx[None, None, :])

    def point_matrices(self, point: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand a point into dense (X: n x m, Y: n x n, Z: n x n) arrays.

        Entries of nonexistent pairs are zero, matching their interpretation
        in cut evaluation.
        """
        n, pi, pj = self.n, self.pair_i, self.pair_j
        point = np.asarray(point, dtype=float)
        X = point[: self.num_x].reshape(n, self.m)
        Y = np.zeros((n, n))
        Z = np.zeros((n, n))
        Y[pi, pj] = Y[pj, pi] = point[self.ycol[pi, pj]]
        Z[pi, pj] = point[self.zcol[pi, pj]]
        Z[pj, pi] = point[self.zcol[pj, pi]]
        return X, Y, Z


@dataclass
class Model:
    """A bounded mixed-binary model: maximize objective @ v over the rows."""

    space: VariableSpace
    objective: np.ndarray
    rows: sparse.csr_matrix
    senses: np.ndarray  # '<', '=', '>'
    rhs: np.ndarray
    integrality: np.ndarray  # bool per column
    lo: np.ndarray
    hi: np.ndarray
    row_family: list[str] = field(default_factory=list)
    # The rows before this index must stay in every LP; the rest may wait in a
    # lazy pool until a point violates them.  None: every row is a core row.
    core_rows: int | None = None

    @property
    def ncols(self) -> int:
        return self.objective.shape[0]

    @property
    def nrows(self) -> int:
        return self.rhs.shape[0]

    def row_count(self, family: str) -> int:
        return sum(1 for f in self.row_family if f == family)

    def point_objective(self, point: np.ndarray) -> float:
        return float(self.objective @ point)

    def point_feasible(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        lhs = self.rows @ point
        for k in range(self.nrows):
            s = self.senses[k]
            if s == LESS_EQUAL and lhs[k] > self.rhs[k] + tol:
                return False
            if s == GREATER_EQUAL and lhs[k] < self.rhs[k] - tol:
                return False
            if s == EQUAL and abs(lhs[k] - self.rhs[k]) > tol:
                return False
        if np.any(point < self.lo - tol) or np.any(point > self.hi + tol):
            return False
        return True


class _RowBuilder:
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

    def freeze(self, ncols: int) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray, list[str]]:
        mat = sparse.csr_matrix(
            (np.asarray(self.data), np.asarray(self.cols, dtype=np.int32), np.asarray(self.indptr, dtype=np.int32)),
            shape=(len(self.rhs), ncols),
        )
        return mat, np.asarray(self.senses), np.asarray(self.rhs, dtype=float), self.family


def build_cc(inst: Instance) -> Model:
    """Build the compact x/y/z model.

    Rows: one-cluster-per-vertex equations, nonempty-cluster covers, the
    per-pair exclusion y + z + z' <= 1, and the two linking families that force
    y (resp. z) to one exactly for same-cluster (resp. consecutive) pairs.
    The linking rows come last; `core_rows` counts the rows before them.
    Every column is bounded by [0, 1]; the solver pins vertex 0 to the first
    cluster on top of this model, which stays the paper's.
    """
    space = VariableSpace(inst)
    n, m = inst.n, inst.m
    alpha = inst.alpha
    pi, pj = space.pair_i, space.pair_j

    obj = np.zeros(space.ncols)
    obj[space.ycol[pi, pj]] = (1.0 - alpha) * inst.q_plus[pi, pj]
    obj[space.zcol[pi, pj]] = alpha * inst.q_minus[pi, pj]
    obj[space.zcol[pj, pi]] = alpha * inst.q_minus[pj, pi]

    rb = _RowBuilder()
    for i in range(n):
        rb.add([space.x(i, s) for s in range(m)], [1.0] * m, EQUAL, 1.0, "assign")
    for s in range(m):
        rb.add([space.x(i, s) for i in range(n)], [1.0] * n, GREATER_EQUAL, 1.0, "cover")
    for (i, j) in space.pairs:
        rb.add([space.y(i, j), space.z(i, j), space.z(j, i)], [1.0, 1.0, 1.0], LESS_EQUAL, 1.0, "pair")
    core_rows = len(rb.rhs)  # the linking rows come last, so a solver may add them lazily
    for (a, b) in space.pairs:
        for (i, j) in ((a, b), (b, a)):
            yij, zij = space.y(i, j), space.z(i, j)
            for s in range(m):
                succ, pred = (s + 1) % m, (s - 1) % m
                # x[i,s] + x[j,s] - y + z - x[j,s+1] - x[i,s-1] <= 1
                rb.add(
                    [space.x(i, s), space.x(j, s), yij, zij, space.x(j, succ), space.x(i, pred)],
                    [1.0, 1.0, -1.0, 1.0, -1.0, -1.0],
                    LESS_EQUAL,
                    1.0,
                    "same_link",
                )
                # x[i,s] + x[j,s+1] - z + y - x[j,s] - x[i,s+1] <= 1
                rb.add(
                    [space.x(i, s), space.x(j, succ), zij, yij, space.x(j, s), space.x(i, succ)],
                    [1.0, 1.0, -1.0, 1.0, -1.0, -1.0],
                    LESS_EQUAL,
                    1.0,
                    "consec_link",
                )

    rows, senses, rhs, family = rb.freeze(space.ncols)
    return Model(
        space=space,
        objective=obj,
        rows=rows,
        senses=senses,
        rhs=rhs,
        integrality=np.ones(space.ncols, dtype=bool),
        lo=np.zeros(space.ncols),
        hi=np.ones(space.ncols),
        row_family=family,
        core_rows=core_rows,
    )


class RltSpace(_Layout):
    """Column layout of the product-variable model: x columns then w columns.

    `wcol[i, j, s, t]` is the column of w[i,j,s,t], -1 where the pair carries
    no weight; per pair the (i, j) products come first, then the (j, i) ones
    off the shared diagonal.
    """

    def __init__(self, inst: Instance):
        super().__init__(inst)
        n, m = self.n, self.m
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

    def w(self, i: int, j: int, s: int, t: int) -> int:
        return _column(self.wcol, i, j, s, t)


def build_rlt(inst: Instance) -> Model:
    """Build the product-variable model (x binary, w continuous in [0,1])."""
    space = RltSpace(inst)
    n, m = inst.n, inst.m
    alpha = inst.alpha

    obj = np.zeros(space.ncols)
    for (i, j) in space.pairs:
        for s in range(m):
            obj[space.w(i, j, s, s)] += (1.0 - alpha) * inst.q_plus[i, j]
            obj[space.w(i, j, s, (s + 1) % m)] += alpha * inst.q_minus[i, j]
            obj[space.w(j, i, s, (s + 1) % m)] += alpha * inst.q_minus[j, i]

    rb = _RowBuilder()
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

    rows, senses, rhs, family = rb.freeze(space.ncols)
    integrality = np.zeros(space.ncols, dtype=bool)
    integrality[: space.num_x] = True
    model = Model(
        space=space,  # type: ignore[arg-type]
        objective=obj,
        rows=rows,
        senses=senses,
        rhs=rhs,
        integrality=integrality,
        lo=np.zeros(space.ncols),
        hi=np.ones(space.ncols),
        row_family=family,
    )
    return model


def clustering_to_point(space: VariableSpace, c: Clustering) -> np.ndarray:
    """Incidence vector of a clustering: x one-hot, y same-cluster, z consecutive."""
    m = space.m
    point = np.zeros(space.ncols)
    for i, a in enumerate(c.assignment):
        point[space.x(i, a)] = 1.0
    for (i, j) in space.pairs:
        ai, aj = c.assignment[i], c.assignment[j]
        if ai == aj:
            point[space.y(i, j)] = 1.0
        elif aj == (ai + 1) % m:
            point[space.z(i, j)] = 1.0
        elif ai == (aj + 1) % m:
            point[space.z(j, i)] = 1.0
    return point


def point_to_clustering(space: VariableSpace, point: np.ndarray, tol: float = 1e-6) -> Clustering:
    """Recover the clustering from the x-block of an integral feasible point."""
    x = np.asarray(point, dtype=float)[: space.num_x].reshape(space.n, space.m)
    if np.any(np.minimum(np.abs(x), np.abs(1.0 - x)) > tol):
        raise ConversionError("x-part is fractional")
    assignment = []
    for i in range(space.n):
        ones = np.nonzero(x[i] > 0.5)[0]
        if len(ones) != 1:
            raise ConversionError(f"vertex {i} has {len(ones)} clusters selected")
        assignment.append(int(ones[0]))
    try:
        return Clustering(tuple(assignment), space.m)
    except ValueError as exc:
        raise ConversionError(str(exc)) from None


def write_lp(model: Model, target: IO[str], name: str = "cyclecluster") -> None:
    """Export in CPLEX LP text format for cross-checking with external solvers."""
    cols = model.ncols
    col_name = model.space.name if isinstance(model.space, VariableSpace) else "v{}".format
    names = [col_name(c) for c in range(cols)]
    target.write(f"\\ {name}\nMaximize\n obj:")
    terms = [(c, v) for c, v in enumerate(model.objective) if v != 0.0]
    for c, v in terms:
        target.write(f" {'+' if v >= 0 else '-'} {abs(v):.17g} {names[c]}")
    target.write("\nSubject To\n")
    rows = model.rows.tocsr()
    sense_txt = {LESS_EQUAL: "<=", EQUAL: "=", GREATER_EQUAL: ">="}
    for k in range(model.nrows):
        lo, hi = rows.indptr[k], rows.indptr[k + 1]
        target.write(f" r{k}:")
        for c, v in zip(rows.indices[lo:hi], rows.data[lo:hi]):
            target.write(f" {'+' if v >= 0 else '-'} {abs(v):.17g} {names[c]}")
        target.write(f" {sense_txt[model.senses[k]]} {model.rhs[k]:.17g}\n")
    target.write("Bounds\n")
    for c in range(cols):
        target.write(f" {model.lo[c]:.17g} <= {names[c]} <= {model.hi[c]:.17g}\n")
    target.write("Binaries\n")
    for c in range(cols):
        if model.integrality[c]:
            target.write(f" {names[c]}\n")
    target.write("End\n")
