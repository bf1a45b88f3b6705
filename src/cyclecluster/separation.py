"""Separation of valid inequalities for the cycle clustering polytope.

Three families are separated against a (fractional) point over the compact
model's variables, each over whole arrays rather than one candidate at a time:

* triangle inequalities, by complete O(n^3) enumeration of vertex triples,
  with the subfamilies gated on the cluster count they are stated for; each
  subfamily's violated triples become one table of columns, a row per cut;
* partition inequalities over disjoint seed sets (S, T), grown greedily from
  almost-violated two-against-one triangles, capped at |S| + |T| <= 5; the
  seeds grow in lockstep, one vertex per step, over (seeds, n) arrays;
* extended subtour and path inequalities, via a maximum-weight-walk dynamic
  program run for every start node at once over an (n, n, n) stack, still
  O(n^3 m) in total; extracted walks that revisit a vertex are discarded, so
  the walk value is only a search bound while every emitted cut is sound.

Every separator returns one `Cuts` batch, the only form a cut takes from
separator to LP: a `formulation.Csr` block of rows over the model's
columns, with ascending column indices, so a batch goes into the LP as it
is.  A cut references only variables that exist for the instance.  Terms
with a positive coefficient may be dropped when their pair carries no
weight (this only weakens the inequality); templates whose
negative-coefficient variables are missing are skipped entirely.

Each separator collects its candidates as tables of columns, a row per cut
with -1 for an absent term, and turns each table into a batch
(`Cuts.from_tables`); `_sorted_unique` keeps the first row per support key
and orders the rows with one `np.lexsort`.  Every float is computed by the
same operations in the same order as a scalar loop over the candidates
would, so the cuts, their violations and their order do not depend on the
vectorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from cyclecluster.formulation import Csr, VariableSpace

TOL_CUT = 1e-4  # the violation a separated cut must exceed
PARTITION_MAX_SIZE = 5
PARTITION_MAX_SEEDS = 50
PARTITION_ALMOST_VIOLATED = 0.1


@dataclass(frozen=True, eq=False)
class Cuts(Csr):
    """A batch of sparse valid inequalities, row r being

        data[a:b] . v[indices[a:b]] <= rhs[r],   a, b = indptr[r], indptr[r + 1],

    with its family and its violation at the point it was separated from;
    in the LP a cut's bounds are [-inf, rhs[r]].  The rows are a `Csr`
    block with ascending columns and absent terms dropped, so a batch goes
    into the LP as it is.  `keys` holds one support key per row: the bytes
    of a (rhs, column, coefficient) triple per term, all as floats (every
    column is exact).  Every row has a term, so two rows are the same
    inequality iff their keys are equal.
    """

    rhs: np.ndarray
    family: np.ndarray
    violation: np.ndarray
    keys: np.ndarray

    @classmethod
    def from_tables(cls, tables: Sequence[tuple], ncols: int) -> Cuts:
        """The rows of every table in turn, over `ncols` columns.  A table is
        (cols, vals, rhs, family, violation): a (k, w) array whose rows each
        hold distinct columns, with -1 for an absent term; their
        coefficients, as a (k, w) array or one row shared by all; rhs as one
        value or k; one family; and k violations.  The tables are stacked,
        padded with absent terms to the widest, each row is sorted by
        `argsort`, and `Csr.from_table` makes the rows."""
        tables = [table for table in tables if len(table[4])]
        if not tables:
            return cls.empty(ncols)
        counts = [len(table[4]) for table in tables]
        cols = np.full((sum(counts), max(table[0].shape[1] for table in tables)), -1, dtype=np.intp)
        vals, rhs, violation = np.zeros(cols.shape), np.empty(cols.shape[0]), np.empty(cols.shape[0])
        start = 0
        for (table_cols, table_vals, table_rhs, _, table_violation), k in zip(tables, counts):
            at, w = slice(start, start + k), table_cols.shape[1]
            cols[at, :w], vals[at, :w], rhs[at], violation[at] = table_cols, table_vals, table_rhs, table_violation
            start += k
        order = cols.argsort(axis=1)
        rows = np.arange(cols.shape[0])[:, None]
        cols, vals = cols[rows, order], vals[rows, order]
        block = Csr.from_table(cols, vals, ncols)
        # a row's present terms come last, so its key is the tail of its row of triples
        triples = np.empty(cols.shape + (3,))
        triples[:, :, 0], triples[:, :, 1], triples[:, :, 2] = rhs[:, None], cols, vals
        raw, end = triples.tobytes(), 24 * cols.shape[1] * np.arange(1, cols.shape[0] + 1)
        bounds = zip((end - 24 * (block.indptr[1:] - block.indptr[:-1])).tolist(), end.tolist())
        keys = np.fromiter((raw[a:b] for a, b in bounds), dtype=object, count=cols.shape[0])
        family = np.repeat([table[3] for table in tables], counts)
        return cls(block.data, block.indices, block.indptr, ncols, rhs, family, violation, keys)

    @classmethod
    def empty(cls, ncols: int) -> Cuts:
        no_rows = np.zeros(0)
        return cls(no_rows, np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp), ncols, no_rows, np.zeros(0, dtype=str), no_rows, np.zeros(0, dtype=object))

    @classmethod
    def concat(cls, parts: Sequence[Cuts]) -> Cuts:
        """The rows of every part in turn; there is at least one part."""
        nonempty = [part for part in parts if len(part)]
        if len(nonempty) < 2:
            return nonempty[0] if nonempty else parts[0]
        rows = Csr.stack(nonempty)
        fields = ("rhs", "family", "violation", "keys")
        return cls(rows.data, rows.indices, rows.indptr, rows.ncols, *(np.concatenate([getattr(p, name) for p in nonempty]) for name in fields))

    def take(self, idx: np.ndarray) -> Cuts:
        """The rows at `idx`, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        rows = super().take(idx)
        return Cuts(rows.data, rows.indices, rows.indptr, self.ncols, self.rhs[idx], self.family[idx], self.violation[idx], self.keys[idx])

    def text(self, space: VariableSpace) -> str:
        """One readable line per row."""
        lines = []
        for r, (cols, vals) in enumerate(zip(np.split(self.indices, self.indptr[1:-1]), np.split(self.data, self.indptr[1:-1]))):
            terms = " ".join(f"{'+' if v >= 0 else '-'} {abs(v):g} {space.name(c)}" for c, v in zip(cols.tolist(), vals.tolist()))
            lines.append(f"[{self.family[r]}] {terms} <= {self.rhs[r]:g}   (violation {self.violation[r]:.6g})")
        return "\n".join(lines)


def first_rows(keys: np.ndarray) -> np.ndarray:
    """The positions of the first row per key, in ascending order."""
    first = dict(zip(keys[::-1].tolist(), range(keys.size - 1, -1, -1)))
    return np.sort(np.fromiter(first.values(), dtype=np.intp, count=len(first)))


def _sorted_unique(space: VariableSpace, cuts: Cuts) -> Cuts:
    """The first row per key, most violated first, ties broken by rhs, then
    by the terms in name order, compared as (rank, coefficient) pairs.

    One `np.lexsort` orders them.  When two rows tie on violation and rhs,
    each row's terms fill a row of a table in name order, a rank column and
    a coefficient column per term, and the sort reads that table too; the
    ranks are padded with -1 so that a cut whose terms are a prefix of
    another's sorts first, as tuple comparison would have it."""
    if len(cuts) < 2:
        return cuts
    keep = first_rows(cuts.keys)
    keys = np.array([cuts.rhs[keep], -cuts.violation[keep]])
    order = np.lexsort(keys)
    ordered = keys[:, order]
    if (ordered[:, 1:] == ordered[:, :-1]).all(axis=0).any():
        rows, ranks = cuts.entry_rows, space.name_rank[cuts.indices]
        by_name = np.lexsort((ranks, rows))  # ranks are distinct within a cut
        at = (rows, np.arange(rows.size) - cuts.indptr[rows])
        table = np.zeros((len(cuts), at[1].max() + 1, 2))
        table[:, :, 0] = -1
        table[at] = np.column_stack([ranks[by_name], cuts.data[by_name]])
        order = np.lexsort(np.concatenate([table[keep].reshape(keep.size, -1).T[::-1], keys]))
    return cuts.take(keep[order])


# ---------------------------------------------------------------------------
# Triangle inequalities
# ---------------------------------------------------------------------------


def _triple_hits(values: np.ndarray, mask: np.ndarray, bound: float, tol: float, limit: int | None):
    """Violated triples as index arrays (i, j, k) and violations, strongest
    first, then by (i, j, k), capped; `values` becomes the violations."""
    values -= bound
    hit = (mask & (values > tol)).ravel().nonzero()[0]  # in (i, j, k) order, which a stable sort keeps among equal violations
    v = values.ravel()[hit]
    order = (-v).argsort(kind="stable")[:limit]
    n = values.shape[0]
    i, jk = np.divmod(hit[order], n * n)
    return (i, *np.divmod(jk, n)), v[order]


def separate_triangle(space: VariableSpace, point: np.ndarray, max_per_family: int | None = None) -> Cuts:
    """All violated triangle inequalities applicable to the instance's m.

    m == 3 uses the pure-z cyclic implication; m == 4 uses the y-transitivity,
    mixed y/z, half-integral and the strengthened two-against-one forms;
    m >= 5 replaces the strengthened form with the plain two-against-one pair.
    With `max_per_family`, only the most violated cuts per subfamily are built.
    Every subfamily's lhs is evaluated on all triples at once, and its hits
    become one table of columns, a row per cut.
    """
    m = space.m
    _, Y, Z = space.point_matrices(point)
    yc, zc = space.ycol, space.zcol
    base_mask, i_lt_k_mask, j_lt_k_mask = space.triples

    found = []

    def emit(lhs, mask, rhs, family, coefs, cols):
        """One row per violated triple; cols(i, j, k) lists the columns of coefs."""
        triples, viol = _triple_hits(lhs, mask, rhs, TOL_CUT, max_per_family)
        found.append((np.array(cols(*triples)).T, coefs, rhs, family, viol))

    if m == 3:
        vals = Z[:, :, None] + Z[None, :, :] - Z.T[:, None, :]
        emit(vals, base_mask, 1.0, "TriangleZ3", [1.0, 1.0, -1.0], lambda i, j, k: [zc[i, j], zc[j, k], zc[k, i]])
        return _sorted_unique(space, Cuts.from_tables(found, space.ncols))

    # y-transitivity: y(i,j) + y(j,k) - y(i,k) <= 1, middle vertex j, i < k
    vals = Y[:, :, None] + Y[None, :, :] - Y[:, None, :]
    emit(vals, i_lt_k_mask, 1.0, "TriangleY", [1.0, 1.0, -1.0], lambda i, j, k: [yc[i, j], yc[j, k], yc[i, k]])

    # same-cluster shift: y(i,j) + z(i,k) - z(j,k) <= 1 and y(i,j) + z(k,i) - z(k,j) <= 1
    vals = Y[:, :, None] + Z[:, None, :] - Z[None, :, :]
    emit(vals, base_mask, 1.0, "TriangleYZ", [1.0, 1.0, -1.0], lambda i, j, k: [yc[i, j], zc[i, k], zc[j, k]])
    vals = Y[:, :, None] + Z.T[:, None, :] - Z.T[None, :, :]
    emit(vals, base_mask, 1.0, "TriangleYZ", [1.0, 1.0, -1.0], lambda i, j, k: [yc[i, j], zc[k, i], zc[k, j]])

    # half-integral mixed triangle, middle vertex j, i < k
    vals = (
        Y[:, :, None]
        + Y[None, :, :]
        - Y[:, None, :]
        + 0.5 * (Z[:, :, None] + Z.T[:, :, None] + Z[None, :, :] + Z.T[None, :, :] - Z[:, None, :] - Z.T[:, None, :])
    )
    emit(
        vals,
        i_lt_k_mask,
        1.0,
        "TriangleMixed",
        [1.0, 1.0, -1.0, 0.5, 0.5, 0.5, 0.5, -0.5, -0.5],
        lambda i, j, k: [yc[i, j], yc[j, k], yc[i, k], zc[i, j], zc[j, i], zc[j, k], zc[k, j], zc[i, k], zc[k, i]],
    )

    if m == 4:
        # strengthened two-against-one (valid exactly for four clusters): common tail i, j < k
        vals = (
            Z[:, :, None]
            + Z[:, None, :]
            - 2.0 * Y[None, :, :]
            - Z[None, :, :]
            - Z.T[None, :, :]
            - Z.T[:, :, None]
            - Z.T[:, None, :]
        )
        emit(
            vals,
            j_lt_k_mask,
            0.0,
            "TriangleZZY4",
            [1.0, 1.0, -2.0, -1.0, -1.0, -1.0, -1.0],
            lambda i, j, k: [zc[i, j], zc[i, k], yc[j, k], zc[j, k], zc[k, j], zc[j, i], zc[k, i]],
        )
    else:
        # two-against-one: z(i,j) + z(i,k) - y(j,k) <= 1 and z(j,i) + z(k,i) - y(j,k) <= 1
        vals = Z[:, :, None] + Z[:, None, :] - Y[None, :, :]
        emit(vals, j_lt_k_mask, 1.0, "TriangleZZY", [1.0, 1.0, -1.0], lambda i, j, k: [zc[i, j], zc[i, k], yc[j, k]])
        vals = Z.T[:, :, None] + Z.T[:, None, :] - Y[None, :, :]
        emit(vals, j_lt_k_mask, 1.0, "TriangleZZY", [1.0, 1.0, -1.0], lambda i, j, k: [zc[j, i], zc[k, i], yc[j, k]])

    return _sorted_unique(space, Cuts.from_tables(found, space.ncols))


# ---------------------------------------------------------------------------
# Partition inequalities
# ---------------------------------------------------------------------------


def _partition_rows(space: VariableSpace, S: np.ndarray, T: np.ndarray, violation: np.ndarray) -> Cuts:
    """One row per row of the vertex tables S and T, each side padded with
    n: z on every present pair of S x T, minus y within each side."""
    n = space.n
    ycol = np.full((n + 1, n + 1), -1, dtype=np.intp)  # the padding vertex has no pairs
    zcol = ycol.copy()
    ycol[:n, :n], zcol[:n, :n] = space.ycol, space.zcol
    z = zcol[S[:, :, None], T[:, None, :]].reshape(S.shape[0], S.shape[1] * T.shape[1])
    a, b = np.array(list(combinations(range(S.shape[1]), 2)), dtype=np.intp).reshape(-1, 2).T
    y = np.concatenate([ycol[S[:, a], S[:, b]], ycol[T[:, a], T[:, b]]], axis=1)
    vals = np.concatenate([np.ones(z.shape[1]), -np.ones(y.shape[1])])
    rhs = np.minimum((S < n).sum(axis=1), (T < n).sum(axis=1)).astype(float)
    return Cuts.from_tables([(np.concatenate([z, y], axis=1), vals, rhs, "Partition", violation)], space.ncols)


def _partition_seeds(Y: np.ndarray, Z: np.ndarray, E: np.ndarray, almost_violated: float) -> list[tuple]:
    """Two-against-one triangles within `almost_violated` of being tight, as
    (slack, S, T) in ascending order: ((i,), (j, k)) for z(i,j) + z(i,k) - y(j,k)
    and ((j, k), (i,)) for z(j,i) + z(k,i) - y(j,k), for j < k with all three
    pairs present.  Each slack takes the scalar expression's operations in
    the same order, so it is the same float as a scalar loop computes."""
    # over the pairs j < k that carry weight; E has an empty diagonal, so
    # E[i, j] & E[i, k] already keeps i apart from j and k
    pj, pk = np.triu(E, 1).nonzero()
    ok = E[:, pj] & E[:, pk]
    slack_fwd = 1.0 - (Z[:, pj] + Z[:, pk] - Y[pj, pk])
    slack_bwd = 1.0 - (Z.T[:, pj] + Z.T[:, pk] - Y[pj, pk])
    fwd = ok & (slack_fwd < almost_violated)
    bwd = ok & (slack_bwd < almost_violated)
    (i, p), (bi, bp) = fwd.nonzero(), bwd.nonzero()
    # the sides' vertices, with -1 after a one-vertex side: in tuple order a
    # side that is a prefix of another sorts first
    slack = np.concatenate([slack_fwd[fwd], slack_bwd[bwd]])
    s0, s1 = np.concatenate([i, pj[bp]]), np.concatenate([np.full(i.size, -1), pk[bp]])
    t0, t1 = np.concatenate([pj[p], bi]), np.concatenate([pk[p], np.full(bi.size, -1)])
    order = np.lexsort((t1, t0, s1, s0, slack))
    columns = (slack[order].tolist(), *(a[order].tolist() for a in (s0, s1, t0, t1)))
    return [(x, (a,), (c, d)) if b < 0 else (x, (a, b), (c,)) for x, a, b, c, d in zip(*columns)]


def _best_candidates(gain: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the vertex a scan in vertex order over the allowed ones picks
    when a later vertex replaces the pick only with a gain more than 1e-12
    larger: (vertex, gain), or (-1, -inf) for a row with none allowed.

    The first argmax is that pick when it beats every allowed gain g before
    it by the scan's own test, max > g + 1e-12: the scan then takes it, and
    nothing after it beats max + 1e-12.  Only rows with a near-tie before
    their first argmax run the scan itself."""
    rows = np.arange(gain.shape[0])
    masked = np.where(ok, gain, -np.inf)
    best_v = masked.argmax(axis=1)
    best_gain = masked[rows, best_v]
    earlier = np.arange(gain.shape[1]) < best_v[:, None]
    near = (earlier & ~(best_gain[:, None] > masked + 1e-12)).any(axis=1)
    best_v[~ok.any(axis=1)] = -1
    for r in near.nonzero()[0].tolist():
        v_r, g_r = -1, -np.inf
        for v, g in zip(ok[r].nonzero()[0].tolist(), gain[r][ok[r]].tolist()):
            if g > g_r + 1e-12:
                v_r, g_r = v, g
        best_v[r], best_gain[r] = v_r, g_r
    return best_v, best_gain


def separate_partition(space: VariableSpace, point: np.ndarray) -> Cuts:
    """Heuristic separation of sum z(S->T) - y(S) - y(T) <= min(|S|, |T|).

    Seeds are the first `PARTITION_MAX_SEEDS` two-against-one triangles
    within `PARTITION_ALMOST_VIOLATED` of being tight; the smaller side is
    then grown by the vertex with the best lhs gain (S on a tie of sizes
    when its gain is at least T's), and a seed stops when no vertex may
    join or |S| + |T| reaches `PARTITION_MAX_SIZE`.  Growing a side
    requires its internal y-variables to exist (their coefficient is
    negative); missing z-terms are simply dropped.  Every seed grows in the same step: its sides are
    rows of (seeds, size) vertex tables, padded with n, which indexes a
    zero row of the weights, so each gain is summed term by term in the
    order the sides were grown, plus exact zeros.
    """
    n = space.n
    _, Y, Z = space.point_matrices(point)
    E = space.ycol >= 0
    seeds = _partition_seeds(Y, Z, E, PARTITION_ALMOST_VIOLATED)[:PARTITION_MAX_SEEDS]  # every seed is a distinct (S, T)
    if not seeds:
        return Cuts.empty(space.ncols)
    # weights with a zero row and column for the padding vertex n; pairs
    # with the padding vertex count as present, so padding excludes nothing
    Yp, Zp = np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1))
    Yp[:n, :n], Zp[:n, :n] = Y, Z
    Ep = np.ones((n + 1, n + 1), dtype=bool)
    Ep[:n, :n] = E

    k = len(seeds)
    seed_ids = np.arange(k)[:, None]
    width = max(PARTITION_MAX_SIZE, 3)
    # a seed is ((i,), (j, k)) or ((j, k), (i,)): its three vertices in order, and |S|
    vertices = np.array([S0 + T0 for _, S0, T0 in seeds])
    size_s = np.array([len(S0) for _, S0, _ in seeds])
    sides = np.full((2, k, width), n)
    S, T = sides  # views, so growing `sides` grows S and T
    one = size_s == 1
    S[:, 0], S[:, 1] = vertices[:, 0], np.where(one, n, vertices[:, 1])
    T[:, 0], T[:, 1] = np.where(one, vertices[:, 1], vertices[:, 2]), np.where(one, vertices[:, 2], n)
    size = np.array([size_s, 3 - size_s])

    # the lhs of each seed: z over S x T, then y within S and within T
    lhs = np.zeros(k)
    for a in range(2):
        for b in range(2):
            lhs += Zp[S[:, a], T[:, b]]
    for side in sides:
        lhs -= Yp[side[:, 0], side[:, 1]]
    best_viol = lhs - size.min(axis=0)
    best_size = size.copy()
    active = np.ones(k, dtype=bool)

    def candidates(side: np.ndarray, other: np.ndarray, into_s: bool) -> tuple[np.ndarray, np.ndarray]:
        toward = Zp.T if into_s else Zp  # row j holds z(v, j) for joining S, z(j, v) for joining T
        z_gain = np.zeros((k, n + 1))
        y_loss = np.zeros((k, n + 1))
        ok = np.ones((k, n + 1), dtype=bool)
        for p in range(size.max()):  # past every side's end each term would add an exact zero
            z_gain += toward[other[:, p]]
            y_loss += Yp[side[:, p]]
            ok &= Ep[side[:, p]]  # else an internal y-term would be missing
        ok[seed_ids, side] = ok[seed_ids, other] = False
        return _best_candidates((z_gain - y_loss)[:, :n], ok[:, :n])

    for _ in range(3, PARTITION_MAX_SIZE):  # one vertex per step, from size 3 up to the cap
        if not active.any():
            break
        v_s, gain_s = candidates(S, T, True)
        v_t, gain_t = candidates(T, S, False)
        into_s = (size[0] < size[1]) | ((size[0] == size[1]) & (gain_s >= gain_t))
        v = np.where(into_s, v_s, v_t)
        active &= v >= 0
        side = np.where(into_s, 0, 1)
        grow = active.nonzero()[0]
        sides[side[grow], grow, size[side[grow], grow]] = v[grow]
        size[side[grow], grow] += 1
        lhs = np.where(active, lhs + np.where(into_s, gain_s, gain_t), lhs)
        viol = lhs - size.min(axis=0)
        better = active & (viol > best_viol)
        best_viol = np.where(better, viol, best_viol)
        best_size[:, better] = size[:, better]

    # the sides at their best, padded with n; of seeds that reach the same
    # sets, `_sorted_unique` keeps the first
    width = int(best_size.max())
    keep = np.arange(width)[None, :] < best_size[:, :, None]
    S, T = np.where(keep[0], S[:, :width], n), np.where(keep[1], T[:, :width], n)
    violated = best_viol > TOL_CUT
    return _sorted_unique(space, _partition_rows(space, S[violated], T[violated], best_viol[violated]))


# ---------------------------------------------------------------------------
# Extended subtour and path inequalities (maximum-weight walk DP)
# ---------------------------------------------------------------------------


def _walk_dp(C: np.ndarray, starts: np.ndarray, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """W[ell, s, v]: the heaviest walk of ell arcs from starts[s] to v over the
    arc weights C[s], and P its predecessor of v, -1 where no walk exists."""
    k, n = C.shape[0], C.shape[1]
    W = np.full((max_len + 1, k, n), -np.inf)
    P = np.full((max_len + 1, k, n), -1, dtype=np.int64)
    W[1] = C[np.arange(k), starts]
    P[1] = np.where(np.isfinite(W[1]), starts[:, None], -1)
    for ell in range(2, max_len + 1):
        cand = W[ell - 1][:, :, None] + C
        P[ell] = cand.argmax(axis=1)
        W[ell] = cand.max(axis=1)  # the value at P[ell]: a max of floats is one of them
        P[ell][~np.isfinite(W[ell])] = -1
    return W, P


def _extract_walks(P: np.ndarray, s: np.ndarray, ends: np.ndarray, ell: int) -> np.ndarray:
    """The walks of ell arcs into `ends` from start s, a row each.  Every
    walk asked for has a finite weight, so its predecessors all exist."""
    nodes = np.empty((s.size, ell + 1), dtype=np.intp)
    nodes[:, ell] = ends
    for step in range(ell, 0, -1):
        nodes[:, step - 1] = P[step, s, nodes[:, step]]
    return nodes


def _distinct_rows(nodes: np.ndarray) -> np.ndarray:
    ordered = nodes.copy()
    ordered.sort(axis=1)
    return (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)


def _walk_cols(space: VariableSpace, walks: np.ndarray) -> np.ndarray:
    """z on every arc of each walk, y on every arc but the first."""
    tails, heads = walks[:, :-1], walks[:, 1:]
    return np.concatenate([space.zcol[tails, heads], space.ycol[tails[:, 1:], heads[:, 1:]]], axis=1)


def _walk_rows(space: VariableSpace, Y: np.ndarray, Z: np.ndarray, starts: np.ndarray, tol: float) -> Cuts:
    """The subtour rows by length, then the path rows, of walks from the
    starts.  No two rows share a support key: the z-terms of a simple walk
    fix the walk, and its one arc without a y-term fixes the start."""
    n, m = space.n, space.m
    k = starts.size
    C = (Z + Y)[None].repeat(k, axis=0)
    C[np.arange(k), starts] = Z[starts]
    C[C <= 0.0] = -np.inf
    C[:, np.arange(n), np.arange(n)] = -np.inf
    W, P = _walk_dp(C, starts, m - 1)

    found = []
    for ell in range(2, m):
        w = W[ell, np.arange(k), starts]
        s = (w > ell - 1 + tol).nonzero()[0]
        walks = _extract_walks(P, s, starts[s], ell)
        keep = _distinct_rows(walks[:, :-1])
        s, walks = s[keep], walks[keep]
        found.append((_walk_cols(space, walks), 1.0, float(ell - 1), "Subtour", w[s] - (ell - 1)))
    ell = m - 1
    if ell >= 2:
        total = W[ell] + Y[starts]
        total[np.arange(k), starts] = -np.inf
        s, v = (total > m - 1 + tol).nonzero()
        walks = _extract_walks(P, s, v, ell)
        keep = _distinct_rows(walks)
        s, v, walks = s[keep], v[keep], walks[keep]
        # the closing y(start, end) where that pair carries weight, else -1
        cols = np.concatenate([_walk_cols(space, walks), space.ycol[starts[s], v][:, None]], axis=1)
        found.append((cols, 1.0, float(m - 1), "Path", total[s, v] - (m - 1)))
    return Cuts.from_tables(found, space.ncols)


def separate_subtour_path(space: VariableSpace, point: np.ndarray) -> Cuts:
    """Extended subtour and path cuts from maximum-weight walks per start node.

    Arc weights are z for arcs leaving the start node and z + y elsewhere, so
    the y-terms cover every cycle arc but the first one.  Closed walks of
    length 2..m-1 give subtour cuts; walks of exactly m-1 arcs plus the
    closing same-cluster term give path cuts.  One DP serves every start.
    """
    _, Y, Z = space.point_matrices(point)
    return _sorted_unique(space, _walk_rows(space, Y, Z, np.arange(space.n), TOL_CUT))
