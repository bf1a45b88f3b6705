"""The compact binary programming model for cycle clustering.

The model has assignment variables x[i,s], same-cluster variables y[i,j]
(stored for i < j) and consecutive-cluster variables z[i,j] for all ordered
pairs.  Variables y/z for a pair are created only when the pair carries
weight in at least one direction; zero-weight pairs cannot contribute to the
objective and their cluster relation is left unconstrained.

Variables are plain column indices.  `VariableSpace` maps vertex pairs to the
y/z columns through n x n arrays, and holds the one place readable names are
made: x_i_s, y_i_j with i < j, and z_i_j.

Every block of rows is a `Csr`, the one row format: a model's rows, the
LP's mirror of its rows, the solver's lazy pool of linking rows, and
`separation.Cuts`, which adds a right-hand side and more per row.  The
model builds its rows as a separator builds its cuts, from tables of columns
(`Csr.from_table`), one table per row family, and bounds each row as HiGHS
takes it: row_lower <= a . v <= row_upper, with an infinite bound where a
row has no bound on that side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import IO, Sequence

import numpy as np

from cyclecluster.instance import Clustering, Instance, ParameterError

TOL_INTEGRALITY = 1e-6  # an x value within it of 0 or 1 reads as integral


class ConversionError(ValueError):
    """A point cannot be interpreted as an integral feasible clustering."""


def _column(table: np.ndarray, *key: int) -> int:
    col = int(table[key])
    if col < 0:
        raise KeyError(f"no column for {key}: the pair carries no weight")
    return col


class VariableSpace:
    """Column layout shared by the model, LP points, separation and cuts:
    the x columns, vertex-major, then one block of columns per pair (i, j),
    i < j, that carries weight.

    Per weighted pair the block is [y(i,j), z(i,j), z(j,i)]; `ycol` (symmetric)
    and `zcol` map a vertex pair to its column, -1 where the pair carries no
    weight.  For an all-positive weight matrix this is the full variable
    universe of the compact model.
    """

    def __init__(self, inst: Instance):
        # With two clusters both orderings are "consecutive" at once, which the
        # z-variables cannot express; the cycle formulation needs m >= 3.
        if inst.m < 3:
            raise ParameterError(f"cycle formulations require m >= 3, got m={inst.m}")
        self.inst = inst
        self.n, self.m = inst.n, inst.m
        self.pair_i, self.pair_j = np.nonzero(np.triu(inst.q_plus > 0.0, 1))
        self.pairs: list[tuple[int, int]] = list(zip(self.pair_i.tolist(), self.pair_j.tolist()))
        self.num_x = self.n * self.m
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

    def x(self, i: int, s: int) -> int:
        return i * self.m + s

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


@dataclass(frozen=True, eq=False)
class Csr:
    """Rows in compressed sparse row form over `ncols` columns: row r holds
    data[a:b] at the columns indices[a:b], a, b = indptr[r], indptr[r + 1],
    and indptr[0] is 0.  The arrays are not written after construction,
    so `entry_rows` is computed once per block.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    ncols: int

    def __len__(self) -> int:
        return self.indptr.size - 1

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.ncols

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @cached_property
    def entry_rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.arange(len(self)).repeat(self.indptr[1:] - self.indptr[:-1])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """Each row's sum of data * v[indices], summed in entry order from
        0.0, which gives bitwise the sums of scipy's CSR matrix-vector product."""
        return np.bincount(self.entry_rows, weights=self.data * v[self.indices], minlength=len(self))

    def __getitem__(self, rows: slice | np.ndarray) -> Csr:
        """The rows at a slice, a boolean mask or an index array, in order."""
        return self.take(np.arange(len(self))[rows])

    def take(self, idx: np.ndarray) -> Csr:
        """The rows at `idx`, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        starts = self.indptr[idx]
        lengths = self.indptr[idx + 1] - starts
        indptr = np.zeros(idx.size + 1, dtype=self.indptr.dtype)
        np.cumsum(lengths, out=indptr[1:])
        entries = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return Csr(self.data[entries], self.indices[entries], indptr, self.ncols)

    @staticmethod
    def from_table(cols: np.ndarray, vals, ncols: int) -> Csr:
        """One row per row of a (k, w) table of columns, with -1 for an
        absent term; `vals` holds the coefficients, as a (k, w) array or one
        row shared by all.  Each row keeps its terms in table order, and the
        indices and indptr take the table's dtype."""
        present = cols >= 0
        indptr = np.zeros(cols.shape[0] + 1, dtype=cols.dtype)
        np.cumsum(present.sum(axis=1), out=indptr[1:])
        return Csr(np.broadcast_to(np.asarray(vals, dtype=float), cols.shape)[present], cols[present], indptr, ncols)

    @staticmethod
    def stack(parts: Sequence[Csr]) -> Csr:
        """The rows of every part in turn; the parts share their columns."""
        if len(parts) == 1:
            return parts[0]
        offsets = accumulate((p.nnz for p in parts), initial=0)  # Python ints keep each indptr's dtype
        return Csr(
            np.concatenate([p.data for p in parts]),
            np.concatenate([p.indices for p in parts]),
            np.concatenate([parts[0].indptr[:1]] + [p.indptr[1:] + offset for p, offset in zip(parts, offsets)]),
            parts[0].ncols,
        )


@dataclass
class Model:
    """A bounded binary model: maximize objective @ v subject to
    row_lower <= rows @ v <= row_upper and lo <= v <= hi, v binary."""

    space: VariableSpace
    objective: np.ndarray
    rows: Csr
    row_lower: np.ndarray
    row_upper: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    row_family: list[str]
    # The rows before this index must stay in every LP; the rest may wait in a
    # lazy pool until a point violates them.
    core_rows: int

    @property
    def ncols(self) -> int:
        return self.objective.shape[0]

    @property
    def nrows(self) -> int:
        return len(self.rows)


def build_cc(inst: Instance) -> Model:
    """Build the compact x/y/z model.

    Rows: one-cluster-per-vertex equations, nonempty-cluster covers, the
    per-pair exclusion y + z + z' <= 1, and the two linking families that force
    y (resp. z) to one exactly for same-cluster (resp. consecutive) pairs.
    The linking rows come last, by pair, direction, cluster s, then same
    before consecutive; `core_rows` counts the rows before them.
    Every column is bounded by [0, 1]; the solver pins vertex 0 to the first
    cluster on top of this model, which stays the paper's.
    """
    space = VariableSpace(inst)
    n, m = inst.n, inst.m
    alpha = inst.alpha
    pi, pj = space.pair_i, space.pair_j
    yij, zij, zji = space.ycol[pi, pj], space.zcol[pi, pj], space.zcol[pj, pi]

    obj = np.zeros(space.ncols)
    obj[yij] = (1.0 - alpha) * inst.q_plus[pi, pj]
    obj[zij] = alpha * inst.q_minus[pi, pj]
    obj[zji] = alpha * inst.q_minus[pj, pi]

    # linking tables over (pair, direction (i, j) then (j, i), cluster s)
    x = np.arange(space.num_x).reshape(n, m)
    i, j = np.stack([pi, pj], axis=1)[:, :, None], np.stack([pj, pi], axis=1)[:, :, None]
    y, z = np.stack([yij, yij], axis=1)[:, :, None], np.stack([zij, zji], axis=1)[:, :, None]
    s = np.arange(m)
    succ, pred = (s + 1) % m, (s - 1) % m
    # x[i,s] + x[j,s] - y + z - x[j,s+1] - x[i,s-1] <= 1
    same = np.stack(np.broadcast_arrays(x[i, s], x[j, s], y, z, x[j, succ], x[i, pred]), axis=-1)
    # x[i,s] + x[j,s+1] - z + y - x[j,s] - x[i,s+1] <= 1
    consec = np.stack(np.broadcast_arrays(x[i, s], x[j, succ], z, y, x[j, s], x[i, succ]), axis=-1)
    link = np.stack([same, consec], axis=-2).reshape(-1, 6)

    # per row family: (k, w) table of columns, coefficients, lower and upper
    # bound of every row, and the family names its rows take in turn
    tables = [
        (x, 1.0, 1.0, 1.0, ("assign",)),
        (x.T, 1.0, 1.0, np.inf, ("cover",)),
        (np.stack([yij, zij, zji], axis=1), 1.0, -np.inf, 1.0, ("pair",)),
        (link, [1.0, 1.0, -1.0, 1.0, -1.0, -1.0], -np.inf, 1.0, ("same_link", "consec_link")),
    ]
    # the indices are HiGHS's 32-bit ints, as the LP hands them on
    parts = [Csr.from_table(np.asarray(cols, dtype=np.int32), vals, space.ncols) for cols, vals, *_ in tables]
    counts = [len(part) for part in parts]
    return Model(
        space=space,
        objective=obj,
        rows=Csr.stack(parts),
        row_lower=np.repeat([table[2] for table in tables], counts),
        row_upper=np.repeat([table[3] for table in tables], counts),
        lo=np.zeros(space.ncols),
        hi=np.ones(space.ncols),
        row_family=[name for table, k in zip(tables, counts) for name in table[4] * (k // len(table[4]))],
        core_rows=n + m + len(pi),  # the linking rows come last, so a solver may add them lazily
    )


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


def point_to_clustering(space: VariableSpace, point: np.ndarray) -> Clustering:
    """Recover the clustering from the x-block of an integral feasible point."""
    x = np.asarray(point, dtype=float)[: space.num_x].reshape(space.n, space.m)
    if np.any(np.minimum(np.abs(x), np.abs(1.0 - x)) > TOL_INTEGRALITY):
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


def write_lp(model: Model, target: IO[str]) -> None:
    """Export in CPLEX LP text format for cross-checking with external solvers."""
    cols = model.ncols
    names = [model.space.name(c) for c in range(cols)]
    target.write("\\ cyclecluster\nMaximize\n obj:")
    terms = [(c, v) for c, v in enumerate(model.objective) if v != 0.0]
    for c, v in terms:
        target.write(f" {'+' if v >= 0 else '-'} {abs(v):.17g} {names[c]}")
    target.write("\nSubject To\n")
    rows, lower, upper = model.rows, model.row_lower, model.row_upper
    # every row is an equation or bounded on one side
    senses = np.where(lower == upper, "=", np.where(np.isinf(lower), "<=", ">="))
    rhs = np.where(np.isinf(lower), upper, lower)
    for k in range(model.nrows):
        lo, hi = rows.indptr[k], rows.indptr[k + 1]
        target.write(f" r{k}:")
        for c, v in zip(rows.indices[lo:hi], rows.data[lo:hi]):
            target.write(f" {'+' if v >= 0 else '-'} {abs(v):.17g} {names[c]}")
        target.write(f" {senses[k]} {rhs[k]:.17g}\n")
    target.write("Bounds\n")
    for c in range(cols):
        target.write(f" {model.lo[c]:.17g} <= {names[c]} <= {model.hi[c]:.17g}\n")
    target.write("Binaries\n")
    for c in range(cols):
        target.write(f" {names[c]}\n")
    target.write("End\n")
