"""Brute-force ground truth at small scale.

Exact optima by enumerating all surjective assignments, batched incidence
vectors for the full variable universe (every pair, regardless of weights),
cut-validity checking against that enumeration, and exact affine dimension of
the incidence-vector polytope.  Everything here refuses instances whose
enumeration would exceed the budget guard.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from cyclecluster.instance import Clustering, Instance

ENUMERATION_BUDGET = 10**8
_CHUNK = 1 << 15


class BudgetExceededError(RuntimeError):
    """The requested enumeration is too large for brute force."""


def _check_budget(n: int, m: int) -> None:
    if m**n > ENUMERATION_BUDGET:
        raise BudgetExceededError(f"m**n = {m}**{n} exceeds the enumeration budget {ENUMERATION_BUDGET:.0e}")


def _assignment_chunks(n_digits: int, m: int) -> Iterator[np.ndarray]:
    """Lexicographically ordered base-m assignments, yielded in blocks."""
    total = m**n_digits
    powers = m ** np.arange(n_digits - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield (idx[:, None] // powers) % m


def _batch_objective(inst: Instance, assigns: np.ndarray) -> np.ndarray:
    b, n = assigns.shape
    m = inst.m
    mat = np.zeros((b, n, m))
    rows = np.repeat(np.arange(b), n)
    cols = np.tile(np.arange(n), b)
    mat[rows, cols, assigns.ravel()] = 1.0
    shifted = np.roll(mat, -1, axis=2)  # column t holds membership of cluster t+1
    flow = np.einsum("bit,ij,bjt->b", mat, inst.q_minus, shifted, optimize=True)
    coh = 0.5 * np.einsum("bit,ij,bjt->b", mat, inst.q_plus, mat, optimize=True)
    return inst.alpha * flow + (1.0 - inst.alpha) * coh


def _pinned_values(inst: Instance) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every surjective assignment with vertex 0 in cluster 0, in
    lexicographic order and in blocks, with its objective value.

    Rotating the clusters keeps the objective, so these take every value.
    Each value is computed over the whole block, surjective or not, so it
    does not depend on which assignments the block keeps.
    """
    _check_budget(inst.n, inst.m)
    for block in _assignment_chunks(inst.n - 1, inst.m):
        assigns = np.concatenate([np.zeros((block.shape[0], 1), dtype=np.int64), block], axis=1)
        surjective = np.ones(block.shape[0], dtype=bool)
        for t in range(1, inst.m):
            surjective &= (assigns == t).any(axis=1)
        if surjective.any():
            vals = _batch_objective(inst, assigns)
            yield assigns[surjective], vals[surjective]


def enumerate_optimal(inst: Instance) -> tuple[Clustering, float]:
    """Exact maximizer over all clusterings.

    Vertex 0 is pinned to cluster 0; ties break to the lexicographically
    smallest assignment.
    """
    best_val = -np.inf
    best_assign: np.ndarray | None = None
    for assigns, vals in _pinned_values(inst):
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_assign = float(vals[k]), assigns[k].copy()
    if best_assign is None:
        raise ValueError(f"no feasible clustering for n={inst.n}, m={inst.m}")
    return Clustering(tuple(int(a) for a in best_assign), inst.m), best_val


# ---------------------------------------------------------------------------
# Full variable universe over the complete graph: x block (vertex-major),
# then per pair i < j the block [y(i,j), z(i,j), z(j,i)].  Matches the model
# column layout whenever every pair carries weight.
# ---------------------------------------------------------------------------


def full_universe_size(n: int, m: int) -> int:
    return n * m + 3 * (n * (n - 1) // 2)


def _incidence_block(assigns: np.ndarray, m: int) -> np.ndarray:
    b, n = assigns.shape
    ncols = full_universe_size(n, m)
    pts = np.zeros((b, ncols))
    rows = np.repeat(np.arange(b), n)
    cols = np.tile(np.arange(n) * m, b) + assigns.ravel()
    pts[rows, cols] = 1.0
    col = n * m
    for i in range(n):
        for j in range(i + 1, n):
            ai, aj = assigns[:, i], assigns[:, j]
            pts[:, col] = ai == aj
            pts[:, col + 1] = aj == (ai + 1) % m
            pts[:, col + 2] = ai == (aj + 1) % m
            col += 3
    return pts


def enumerate_feasible_points(n: int, m: int) -> Iterator[np.ndarray]:
    """Yield the incidence vector of every surjective assignment (all rotations)."""
    for block in feasible_point_blocks(n, m):
        yield from block


def feasible_point_blocks(n: int, m: int) -> Iterator[np.ndarray]:
    _check_budget(n, m)
    for block in _assignment_chunks(n, m):
        surjective = np.ones(block.shape[0], dtype=bool)
        for t in range(m):
            surjective &= (block == t).any(axis=1)
        if surjective.any():
            yield _incidence_block(block[surjective], m)


@lru_cache(maxsize=16)
def feasible_point_matrix(n: int, m: int) -> np.ndarray:
    """All feasible incidence vectors stacked into one (cached) matrix."""
    blocks = list(feasible_point_blocks(n, m))
    return np.vstack(blocks)


_RANK_PRIMES = (2147483647, 2147483629)


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Exact rank over GF(p) by vectorized Gaussian elimination (int64-safe)."""
    a = np.mod(mat.astype(np.int64), p)
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        pivots = np.nonzero(a[rank:, c])[0]
        if pivots.size == 0:
            continue
        r = rank + int(pivots[0])
        if r != rank:
            a[[rank, r]] = a[[r, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        below = a[rank + 1 :, c] != 0
        if below.any():
            idx = rank + 1 + np.nonzero(below)[0]
            a[idx] = (a[idx] - a[idx, c][:, None] * a[rank][None, :]) % p
        rank += 1
    return rank


def polytope_dimension(n: int, m: int) -> int:
    """Affine dimension of the feasible incidence vectors.

    Computed as the exact rank of the point differences over two large prime
    fields (each a certified lower bound on the rational rank; for 0/1 data a
    simultaneous collision of both primes is not a practical concern), keeping
    the result independent of floating-point rank decisions.
    """
    pts = feasible_point_matrix(n, m)
    diffs = pts[1:] - pts[0]
    return max(_rank_mod_p(diffs, p) for p in _RANK_PRIMES)


def universe_columns(inst: Instance) -> np.ndarray:
    """Full-universe index of every column of the instance's compact model.

    Derived from the weights alone: the model keeps the x block and, for each
    pair i < j with q_plus[i, j] > 0 in lexicographic order, its
    [y(i,j), z(i,j), z(j,i)] block.
    """
    n, m = inst.n, inst.m
    iu, ju = np.triu_indices(n, 1)
    blocks = n * m + 3 * np.flatnonzero(inst.q_plus[iu, ju] > 0.0)
    return np.concatenate([np.arange(n * m), (blocks[:, None] + np.arange(3)).ravel()])


def cut_vectors(inst: Instance, cuts) -> np.ndarray:
    """Dense full-universe vectors of a `separation.Cuts` batch over the
    instance's model columns, one row per cut."""
    vecs = np.zeros((len(cuts), full_universe_size(inst.n, inst.m)))
    np.add.at(vecs, (cuts.entry_rows, universe_columns(inst)[cuts.indices]), cuts.data)
    return vecs


def check_cut_validity(inst: Instance, cuts, tol: float = 1e-9) -> bool:
    """True iff every feasible incidence vector of the instance satisfies every cut."""
    return bool((max_integral_violation(inst, cuts) <= tol).all())


def max_integral_violation(inst: Instance, cuts) -> np.ndarray:
    """Per cut, the largest lhs - upper over all feasible incidence vectors."""
    pts = feasible_point_matrix(inst.n, inst.m)
    return (pts @ cut_vectors(inst, cuts).T).max(axis=0) - cuts.upper


def surjection_count(n: int, m: int) -> int:
    """Number of onto maps from n vertices to m clusters (inclusion-exclusion)."""
    from math import comb

    return sum((-1) ** k * comb(m, k) * (m - k) ** n for k in range(m + 1))


def worst_value(inst: Instance) -> float:
    """Exact minimizer's value; handy for sanity ranges in tests."""
    return min((float(vals.min()) for _, vals in _pinned_values(inst)), default=np.inf)
