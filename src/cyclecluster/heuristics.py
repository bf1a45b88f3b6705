"""Primal heuristics: greedy construction, LP rounding, iterated exchange
with random perturbations, and the sparsified sub-solve.

All of them operate on the assignment alone; the linearization variables of
any formulation are implied by it.  Greedy and exchange scale the weight
matrices once per call into rows: row v of `coherence` and of `flow_in` holds
(1 - alpha) q_plus[:, v] and alpha q_minus[:, v], which is what a move of v
adds to or subtracts from whole columns.  Exchange computes each vertex's
objective contribution against every cluster once per pass (O(n^2 m)) and
then keeps it current column by column.  A flat index of each vertex's own
cluster and a mask that reads +inf for moved vertices let every move search
the whole (n, m) matrix, so a move costs O(n m) in a fixed dozen numpy calls.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from cyclecluster.instance import Clustering, Instance, objective

MAX_PERTURBATIONS = 5  # restarts of exchange from a perturbed best


def _contributions(inst: Instance, member: np.ndarray) -> np.ndarray:
    """contrib[v, t] = objective terms between v and cluster t's members if v
    sat in t (O(n^2 m)); moving v from a to t changes the objective by
    contrib[v, t] - contrib[v, a]."""
    alpha = inst.alpha
    s_plus = inst.q_plus @ member  # (n, m): coherence mass of v against each cluster
    s_mto = inst.q_minus @ member  # (n, m): net flow from v into each cluster
    return (1.0 - alpha) * s_plus + alpha * (np.roll(s_mto, -1, axis=1) - np.roll(s_mto, 1, axis=1))


def _move(contrib: np.ndarray, coherence: np.ndarray, flow_in: np.ndarray, v: int, a: int, t: int) -> None:
    """Update contrib in place for v leaving cluster a for cluster t (O(n)),
    with the rows `_weight_rows` precomputed.

    Separate statements, not one fancy-indexed add: with m = 3 the columns
    a-1, a+1, t-1 and t+1 coincide in pairs."""
    m = contrib.shape[1]
    coh = coherence[v]
    flow = flow_in[v]
    contrib[:, a] -= coh
    contrib[:, t] += coh
    contrib[:, (a - 1) % m] -= flow
    contrib[:, (a + 1) % m] += flow
    contrib[:, (t - 1) % m] += flow
    contrib[:, (t + 1) % m] -= flow


def _weight_rows(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """(coherence, flow_in): row v is (1 - alpha) q_plus[:, v] and
    alpha q_minus[:, v], the same products as scaling those columns.
    q_plus is symmetric, so its rows are its columns."""
    coherence = (1.0 - inst.alpha) * inst.q_plus
    flow_in = np.multiply(inst.alpha, inst.q_minus.T, order="C")
    return coherence, flow_in


def _improves(value: float, reference: float) -> bool:
    """A gain beyond rounding.  Running sums of deltas drift by ulps of the
    weights, so the threshold grows with the value's magnitude."""
    return value > reference + 1e-12 * max(1.0, abs(reference))


def greedy(inst: Instance) -> Clustering:
    """Construct a feasible clustering by repeated best-gain assignment.

    One seed vertex per cluster first (the m heaviest vertices by total
    undirected weight, heaviest into cluster 0), then the (vertex, cluster)
    pair with the largest objective gain is committed until every vertex is
    placed.  Deterministic; ties break to the lowest vertex, then cluster.

    A commit adds the placed vertex's precomputed weight rows to whole gain
    columns.  Placed vertices' rows read -inf, which no finite weight
    changes, so no mask of unplaced vertices is needed.  The flow out of v,
    alpha q_minus[v, u], is -alpha q_minus[u, v] up to the sign of a zero,
    so it is subtracted as the row flow_in[v].  The sign of a zero term
    changes no sum here: gain starts at +0.0, so it never holds -0.0.
    """
    n, m = inst.n, inst.m
    degree = inst.q_plus.sum(axis=1)
    seeds = sorted(range(n), key=lambda v: (-degree[v], v))[:m]
    coherence, flow_in = _weight_rows(inst)

    assign = np.full(n, -1, dtype=np.int64)
    # gain[v, t]: objective delta of putting v into t given current partials
    gain = np.zeros((n, m))

    def commit(v: int, t: int) -> None:
        assign[v] = t
        gain[v, :] = -np.inf
        gain[:, t] += coherence[v]
        gain[:, (t - 1) % m] += flow_in[v]
        gain[:, (t + 1) % m] -= flow_in[v]

    for t, v in enumerate(seeds):
        commit(v, t)
    for _ in range(n - m):
        flat = int(gain.argmax())  # first maximum = lowest (v, t) on ties
        v, t = divmod(flat, m)
        commit(v, t)
    return Clustering(tuple(int(a) for a in assign), m)


def rounding(inst: Instance, x_fractional: np.ndarray) -> Optional[Clustering]:
    """Round each vertex to its largest assignment value, smallest cluster on
    ties; returns None when some cluster ends up empty."""
    x = np.asarray(x_fractional, dtype=float).reshape(inst.n, inst.m)
    assign = np.argmax(x, axis=1)  # argmax takes the smallest index on ties
    if len(np.unique(assign)) < inst.m:
        return None
    return Clustering(tuple(int(a) for a in assign), inst.m)


def exchange(inst: Instance, start: Clustering, rng_seed: int = 0) -> Clustering:
    """Single-move local search with best tracking and cyclic perturbations.

    A pass reassigns every vertex once, applying the move with the largest
    objective change (even when negative) among those that leave the fewest
    clusters empty, while remembering the best clustering seen.  While every
    cluster is nonempty this is exactly "best move that keeps feasibility";
    when only emptying moves remain (e.g. all-singleton clusters) the pass
    walks through the empty-cluster state instead of stalling, and hole
    filling moves are preferred right after.  Only states with all clusters
    nonempty can become the best.  Passes restart from that best until it
    stops improving; then half of each cluster is pushed to the next cluster
    and the search restarts, at most `MAX_PERTURBATIONS` times.  Never
    returns a clustering worse than `start`.

    Each pass computes the contribution matrix once (O(n^2 m)) and updates
    it column by column after each move from weight rows scaled once per
    call, so a move costs O(n m) and a pass O(n^2 m).  Starting every pass
    from a fresh matrix bounds the rounding drift to at most n rank-1
    updates.  A move searches the whole matrix: `at` holds the flat
    position v*m + assign[v] of each vertex's own cluster, and `moved`
    reads +inf for vertices already moved this pass, so their rows and the
    stay-put entries read -inf.  The first maximum is then the lowest
    unmoved vertex, then the lowest cluster.
    """
    n, m = inst.n, inst.m
    rng = np.random.default_rng(rng_seed)
    coherence, flow_in = _weight_rows(inst)

    best_assign = start.as_array()
    best_val = objective(inst, start)

    def one_pass(assign: np.ndarray, value: float) -> tuple[np.ndarray, float]:
        nonlocal best_assign, best_val
        assign = assign.copy()
        member = np.zeros((n, m))
        member[np.arange(n), assign] = 1.0
        contrib = _contributions(inst, member)
        sizes = np.bincount(assign, minlength=m).tolist()
        at = np.arange(n) * m + assign
        moved = np.zeros(n)
        for _ in range(n):
            delta = contrib - (contrib.ravel().take(at) + moved)[:, None]
            delta.put(at, -np.inf)
            if min(sizes) < 2:  # else no move empties or fills a cluster: every tier is 0
                counts = np.array(sizes)
                # change in number of empty clusters per candidate move
                empty_shift = np.where(counts == 0, -1, 0)[None, :] + (counts[assign] == 1).astype(int)[:, None]
                empty_shift = np.where(np.isfinite(delta), empty_shift, np.inf)
                tier = empty_shift.min()
                if not np.isfinite(tier):
                    break
                delta = np.where(empty_shift == tier, delta, -np.inf)
            flat = int(delta.argmax())
            gain = delta.item(flat)
            if gain == -np.inf:
                break
            v, t = divmod(flat, m)
            a = int(assign[v])
            value += gain
            _move(contrib, coherence, flow_in, v, a, t)
            sizes[a] -= 1
            sizes[t] += 1
            assign[v] = t
            at[v] = flat
            moved[v] = np.inf
            if _improves(value, best_val) and min(sizes) >= 1:
                best_val = value
                best_assign = assign.copy()
        return assign, value

    def perturb(assign: np.ndarray) -> np.ndarray:
        out = assign.copy()
        for t in range(m):
            members = np.nonzero(assign == t)[0]
            k = (len(members) + 1) // 2
            chosen = rng.choice(members, size=k, replace=False)
            out[chosen] = (t + 1) % m
        return out

    perturbations = 0
    current = best_assign.copy()
    current_val = best_val
    while True:
        before = best_val
        one_pass(current, current_val)
        if _improves(best_val, before):
            current = best_assign.copy()
            current_val = best_val
            continue
        if perturbations >= MAX_PERTURBATIONS:
            break
        perturbations += 1
        current = perturb(best_assign)
        current_val = objective(inst, Clustering(tuple(int(a) for a in current), m))
    return Clustering(tuple(int(a) for a in best_assign), m)


def sparsify(
    inst: Instance,
    engine_handle: Callable[[Instance], object],
    keep_fraction: float = 0.03,
) -> Optional[Clustering]:
    """Root-solve a reduced instance keeping only the heaviest pair weights.

    All but the top `keep_fraction` of unordered pairs by undirected weight
    (ties by lexicographic pair order) are zeroed in both directions, and the
    handle runs the solver on the reduction; the caller re-scores the result
    under the original objective.  Returns None when the sub-solve produces
    no integral solution.
    """
    n = inst.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs.sort(key=lambda p: (-inst.q_plus[p[0], p[1]], p))
    keep = int(np.ceil(keep_fraction * len(pairs)))
    dropped = pairs[keep:]
    q = inst.Q.copy()
    for (i, j) in dropped:
        q[i, j] = q[j, i] = 0.0
    reduced = Instance(n=inst.n, m=inst.m, alpha=inst.alpha, Q=q)
    result = engine_handle(reduced)
    best = getattr(result, "best_clustering", None)
    if best is None:
        return None
    return Clustering(best.assignment, best.m)
