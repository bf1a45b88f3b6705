"""Separation of valid inequalities for the cycle clustering polytope.

Three families are separated against a (fractional) point over the compact
model's variables:

* triangle inequalities, by complete O(n^3) enumeration of vertex triples,
  with the subfamilies gated on the cluster count they are stated for;
* partition inequalities over disjoint seed sets (S, T), grown greedily from
  almost-violated two-against-one triangles, capped at |S| + |T| <= 5;
* extended subtour and path inequalities, via a maximum-weight-walk dynamic
  program per start node in O(n^3 m); extracted walks that revisit a vertex
  are discarded, so the walk value is only a search bound while every emitted
  cut is sound.

A cut is one row over the model's columns: ascending column indices and
their coefficients, so a batch of cuts goes into the LP as one CSR block.  It references only variables that exist for the instance.
Terms with a positive coefficient may be dropped when their pair carries no
weight (this only weakens the inequality); templates whose
negative-coefficient variables are missing are skipped entirely.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from cyclecluster.formulation import VariableSpace

DEFAULT_TOL = 1e-4
PARTITION_MAX_SIZE = 5
PARTITION_MAX_SEEDS = 50
PARTITION_ALMOST_VIOLATED = 0.1


@dataclass(eq=False)
class Cut:
    """A sparse valid inequality  vals . v[cols] <= rhs  with its violation.

    `cols` ends up in ascending order with repeated columns merged into one
    coefficient, so two cuts are the same inequality iff their supports match.
    """

    cols: np.ndarray
    vals: np.ndarray
    rhs: float
    family: str
    violation: float

    def __post_init__(self):
        merged: dict[int, float] = defaultdict(float)
        for col, val in zip(self.cols, self.vals):
            merged[int(col)] += float(val)
        cols = sorted(merged)
        self.cols = np.array(cols, dtype=np.intp)
        self.vals = np.array([merged[col] for col in cols])

    @property
    def support(self) -> tuple:
        return (self.rhs, self.cols.tobytes(), self.vals.tobytes())

    def lhs(self, point: np.ndarray) -> float:
        return float(self.vals @ point[self.cols])

    def text(self, space: VariableSpace) -> str:
        terms = " ".join(f"{'+' if v >= 0 else '-'} {abs(v):g} {space.name(c)}" for c, v in zip(self.cols, self.vals))
        return f"[{self.family}] {terms} <= {self.rhs:g}   (violation {self.violation:.6g})"


def _sorted_unique(space: VariableSpace, cuts: Iterable[Cut]) -> list[Cut]:
    """First cut per support, most violated first, ties broken by the support
    with its terms in name order."""
    by_support: dict[tuple, Cut] = {}
    for cut in cuts:
        by_support.setdefault(cut.support, cut)

    def key(cut: Cut) -> tuple:
        return (-cut.violation, cut.rhs, tuple(sorted(zip(space.name_rank[cut.cols].tolist(), cut.vals.tolist()))))

    return sorted(by_support.values(), key=key)


# ---------------------------------------------------------------------------
# Triangle inequalities
# ---------------------------------------------------------------------------


def _triple_hits(values: np.ndarray, mask: np.ndarray, bound: float, tol: float, limit: int | None):
    """Violated triples as (i, j, k, violation), strongest first, capped."""
    viol = values - bound
    hit = mask & (viol > tol)
    idx = np.argwhere(hit)
    if idx.size == 0:
        return []
    v = viol[hit]
    order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0], -v))
    if limit is not None:
        order = order[:limit]
    return [(int(idx[r, 0]), int(idx[r, 1]), int(idx[r, 2]), float(v[r])) for r in order]


def separate_triangle(
    space: VariableSpace, point: np.ndarray, tol: float = DEFAULT_TOL, max_per_family: int | None = None
) -> list[Cut]:
    """All violated triangle inequalities applicable to the instance's m.

    m == 3 uses the pure-z cyclic implication; m == 4 uses the y-transitivity,
    mixed y/z, half-integral and the strengthened two-against-one forms;
    m >= 5 replaces the strengthened form with the plain two-against-one pair.
    With `max_per_family`, only the most violated cuts per subfamily are built.
    """
    n, m = space.n, space.m
    _, Y, Z = space.point_matrices(point)
    yc, zc = space.ycol, space.zcol
    E = yc >= 0
    idx = np.arange(n)
    distinct = (
        (idx[:, None, None] != idx[None, :, None])
        & (idx[None, :, None] != idx[None, None, :])
        & (idx[:, None, None] != idx[None, None, :])
    )
    # all_pairs[i,j,k] requires the pairs (i,j), (j,k) and (i,k) to exist
    all_pairs = E[:, :, None] & E[None, :, :] & E[:, None, :]
    base_mask = distinct & all_pairs

    cuts: list[Cut] = []

    def emit(lhs, mask, rhs, family, coefs, cols):
        """One cut per violated triple; cols(i, j, k) lists the columns of coefs."""
        for i, j, k, v in _triple_hits(lhs, mask, rhs, tol, max_per_family):
            cuts.append(Cut(cols(i, j, k), coefs, rhs, family, v))

    if m == 3:
        vals = Z[:, :, None] + Z[None, :, :] - Z.T[:, None, :]
        emit(vals, base_mask, 1.0, "TriangleZ3", [1.0, 1.0, -1.0], lambda i, j, k: [zc[i, j], zc[j, k], zc[k, i]])
        return _sorted_unique(space, cuts)

    i_lt_k = idx[:, None, None] < idx[None, None, :]
    j_lt_k = idx[None, :, None] < idx[None, None, :]

    # y-transitivity: y(i,j) + y(j,k) - y(i,k) <= 1, middle vertex j, i < k
    vals = Y[:, :, None] + Y[None, :, :] - Y[:, None, :]
    emit(vals, base_mask & i_lt_k, 1.0, "TriangleY", [1.0, 1.0, -1.0], lambda i, j, k: [yc[i, j], yc[j, k], yc[i, k]])

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
        base_mask & i_lt_k,
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
            base_mask & j_lt_k,
            0.0,
            "TriangleZZY4",
            [1.0, 1.0, -2.0, -1.0, -1.0, -1.0, -1.0],
            lambda i, j, k: [zc[i, j], zc[i, k], yc[j, k], zc[j, k], zc[k, j], zc[j, i], zc[k, i]],
        )
    else:
        # two-against-one: z(i,j) + z(i,k) - y(j,k) <= 1 and z(j,i) + z(k,i) - y(j,k) <= 1
        vals = Z[:, :, None] + Z[:, None, :] - Y[None, :, :]
        emit(vals, base_mask & j_lt_k, 1.0, "TriangleZZY", [1.0, 1.0, -1.0], lambda i, j, k: [zc[i, j], zc[i, k], yc[j, k]])
        vals = Z.T[:, :, None] + Z.T[:, None, :] - Y[None, :, :]
        emit(vals, base_mask & j_lt_k, 1.0, "TriangleZZY", [1.0, 1.0, -1.0], lambda i, j, k: [zc[j, i], zc[k, i], yc[j, k]])

    return _sorted_unique(space, cuts)


# ---------------------------------------------------------------------------
# Partition inequalities
# ---------------------------------------------------------------------------


def _partition_lhs(S: Sequence[int], T: Sequence[int], Y: np.ndarray, Z: np.ndarray) -> float:
    lhs = sum(Z[i, j] for i in S for j in T)
    lhs -= sum(Y[S[a], S[b]] for a in range(len(S)) for b in range(a + 1, len(S)))
    lhs -= sum(Y[T[a], T[b]] for a in range(len(T)) for b in range(a + 1, len(T)))
    return float(lhs)


def _partition_cut(space: VariableSpace, S: Sequence[int], T: Sequence[int], violation: float) -> Cut:
    z = [space.zcol[i, j] for i in S for j in T if space.has_pair(i, j)]
    y = [space.ycol[i, j] for side in (S, T) for i, j in combinations(side, 2)]
    return Cut(z + y, [1.0] * len(z) + [-1.0] * len(y), float(min(len(S), len(T))), "Partition", violation)


def _partition_seeds(Y: np.ndarray, Z: np.ndarray, E: np.ndarray, almost_violated: float) -> list[tuple]:
    """Two-against-one triangles within `almost_violated` of being tight, as
    (slack, S, T) in ascending order: ((i,), (j, k)) for z(i,j) + z(i,k) - y(j,k)
    and ((j, k), (i,)) for z(j,i) + z(k,i) - y(j,k), for j < k with all three
    pairs present.  Each slack takes the scalar expression's operations in
    the same order, so it is the same float as a scalar loop computes."""
    # E has an empty diagonal, so E[i, j] & E[i, k] already keeps i apart from j and k
    ok = E[:, :, None] & E[:, None, :] & np.triu(E, 1)[None, :, :]
    slack_fwd = 1.0 - (Z[:, :, None] + Z[:, None, :] - Y[None, :, :])
    slack_bwd = 1.0 - (Z.T[:, :, None] + Z.T[:, None, :] - Y[None, :, :])
    fwd = np.argwhere(ok & (slack_fwd < almost_violated)).tolist()
    bwd = np.argwhere(ok & (slack_bwd < almost_violated)).tolist()
    seeds = [(slack_fwd[i, j, k], (i,), (j, k)) for i, j, k in fwd]
    seeds += [(slack_bwd[i, j, k], (j, k), (i,)) for i, j, k in bwd]
    return sorted(seeds)


def separate_partition(
    space: VariableSpace,
    point: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_size: int = PARTITION_MAX_SIZE,
    max_seeds: int = PARTITION_MAX_SEEDS,
    almost_violated: float = PARTITION_ALMOST_VIOLATED,
) -> list[Cut]:
    """Heuristic separation of sum z(S->T) - y(S) - y(T) <= min(|S|, |T|).

    Seeds are two-against-one triangles within `almost_violated` of being
    tight; the smaller side is then grown by the vertex with the best lhs
    gain.  Growing a side requires its internal y-variables to exist (their
    coefficient is negative); missing z-terms are simply dropped.
    """
    n, m = space.n, space.m
    if m < 3:
        return []
    _, Y, Z = space.point_matrices(point)
    E = space.ycol >= 0

    seeds = _partition_seeds(Y, Z, E, almost_violated)

    def best_candidate(side: list[int], other: list[int], into_s: bool):
        # the gain of every vertex at once, summed term by term in list
        # order so that each gain is the same float as a scalar sum
        z_gain = np.zeros(n)
        for j in other:
            z_gain += Z[:, j] if into_s else Z[j, :]
        y_loss = np.zeros(n)
        for u in side:
            y_loss += Y[:, u]
        gain = z_gain - y_loss
        ok = E[:, side].all(axis=1)  # else an internal y-term would be missing
        ok[side] = ok[other] = False
        best_v, best_gain = -1, -np.inf
        for v, g in zip(np.flatnonzero(ok).tolist(), gain[ok].tolist()):
            if g > best_gain + 1e-12:
                best_v, best_gain = v, g
        return best_v, best_gain

    cuts: list[Cut] = []
    for _, S0, T0 in seeds[:max_seeds]:  # every seed is a distinct (S, T)
        S, T = list(S0), list(T0)
        lhs = _partition_lhs(S, T, Y, Z)
        best_viol = lhs - min(len(S), len(T))
        best_sets = (tuple(S), tuple(T))
        while len(S) + len(T) < max_size:
            if len(S) < len(T):
                choice = best_candidate(S, T, True) + ("S",)
            elif len(T) < len(S):
                choice = best_candidate(T, S, False) + ("T",)
            else:
                cand_s = best_candidate(S, T, True)
                cand_t = best_candidate(T, S, False)
                choice = cand_s + ("S",) if cand_s[1] >= cand_t[1] else cand_t + ("T",)
            v, gain, side = choice
            if v < 0:
                break
            if side == "S":
                S.append(v)
            else:
                T.append(v)
            lhs += gain
            viol = lhs - min(len(S), len(T))
            if viol > best_viol:
                best_viol = viol
                best_sets = (tuple(S), tuple(T))
        if best_viol > tol:
            cuts.append(_partition_cut(space, list(best_sets[0]), list(best_sets[1]), best_viol))

    return _sorted_unique(space, cuts)


# ---------------------------------------------------------------------------
# Extended subtour and path inequalities (maximum-weight walk DP)
# ---------------------------------------------------------------------------


def _walk_dp(C: np.ndarray, i1: int, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    n = C.shape[0]
    W = np.full((max_len + 1, n), -np.inf)
    P = np.full((max_len + 1, n), -1, dtype=np.int64)
    W[1] = C[i1]
    P[1][np.isfinite(W[1])] = i1
    for ell in range(2, max_len + 1):
        cand = W[ell - 1][:, None] + C
        W[ell] = cand.max(axis=0)
        P[ell] = cand.argmax(axis=0)
        P[ell][~np.isfinite(W[ell])] = -1
    return W, P


def _extract_walk(P: np.ndarray, ell: int, end: int) -> list[int] | None:
    nodes = [end]
    cur = end
    for step in range(ell, 0, -1):
        cur = int(P[step][cur])
        if cur < 0:
            return None
        nodes.append(cur)
    nodes.reverse()
    return nodes


def _walk_cols(space: VariableSpace, walk: list[int]) -> list[int]:
    """z on every arc of the walk, y on every arc but the first."""
    tails, heads = walk[:-1], walk[1:]
    return [space.zcol[u, v] for u, v in zip(tails, heads)] + [space.ycol[u, v] for u, v in zip(tails[1:], heads[1:])]


def _subtour_cut(space: VariableSpace, walk: list[int], violation: float) -> Cut:
    cols = _walk_cols(space, walk)
    return Cut(cols, [1.0] * len(cols), float(len(walk) - 2), "Subtour", violation)


def _path_cut(space: VariableSpace, walk: list[int], violation: float) -> Cut:
    cols = _walk_cols(space, walk)
    i1, end = walk[0], walk[-1]
    if space.has_pair(i1, end):
        cols.append(space.ycol[i1, end])
    return Cut(cols, [1.0] * len(cols), float(len(walk) - 1), "Path", violation)


def _separate_from_start(
    space: VariableSpace, Y: np.ndarray, Z: np.ndarray, i1: int, tol: float
) -> list[Cut]:
    n, m = space.n, space.m
    C = Z + Y
    C[i1, :] = Z[i1, :]
    C[C <= 0.0] = -np.inf
    np.fill_diagonal(C, -np.inf)
    W, P = _walk_dp(C, i1, m - 1)

    cuts: list[Cut] = []
    for ell in range(2, m):
        w = float(W[ell][i1])
        if w > ell - 1 + tol:
            walk = _extract_walk(P, ell, i1)
            if walk is not None and len(set(walk[:-1])) == ell:
                cuts.append(_subtour_cut(space, walk, w - (ell - 1)))
    ell = m - 1
    if ell >= 2:
        for v in range(n):
            if v == i1:
                continue
            w = float(W[ell][v])
            if not np.isfinite(w):
                continue
            total = w + Y[i1, v]
            if total > m - 1 + tol:
                walk = _extract_walk(P, ell, v)
                if walk is not None and len(set(walk)) == len(walk):
                    cuts.append(_path_cut(space, walk, total - (m - 1)))
    return cuts


def separate_subtour_path(space: VariableSpace, point: np.ndarray, tol: float = DEFAULT_TOL) -> list[Cut]:
    """Extended subtour and path cuts from maximum-weight walks per start node.

    Arc weights are z for arcs leaving the start node and z + y elsewhere, so
    the y-terms cover every cycle arc but the first one.  Closed walks of
    length 2..m-1 give subtour cuts; walks of exactly m-1 arcs plus the
    closing same-cluster term give path cuts.
    """
    if space.m < 3:
        return []
    _, Y, Z = space.point_matrices(point)
    cuts: list[Cut] = []
    for i1 in range(space.n):
        cuts.extend(_separate_from_start(space, Y, Z, i1, tol))
    return _sorted_unique(space, cuts)
