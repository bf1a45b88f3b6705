"""Primal heuristics: greedy construction, LP rounding, iterated exchange
with random perturbations, and the sparsified sub-solve.

All of them operate on the assignment alone; the linearization variables of
any formulation are implied by it.  Greedy and exchange scale the weight
matrices once per call into rows: row v of `coherence` and of `flow_in` holds
(1 - alpha) q_plus[:, v] and alpha q_minus[:, v], which is what a move of v
adds to or subtracts from whole columns.  Exchange computes each vertex's
objective contribution against every cluster once per pass (O(n^2 m)) and
then keeps it current column by column.  One gather through a flat index of
each vertex's own cluster, which points at a +inf sentinel for stay-put and
moved entries, and one subtraction give the whole (n, m) delta matrix, so a
move costs O(n m) in about ten numpy calls.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from cyclecluster.instance import Clustering, Instance, objective

MAX_PERTURBATIONS = 5  # restarts of exchange from a perturbed best
SPARSIFY_KEEP_FRACTION = 0.03  # share of the unordered pairs, heaviest first, that sparsify keeps


def _contributions(inst: Instance, member: np.ndarray) -> np.ndarray:
    """contrib[v, t] = objective terms between v and cluster t's members if v
    sat in t (O(n^2 m)); moving v from a to t changes the objective by
    contrib[v, t] - contrib[v, a]."""
    alpha = inst.alpha
    s_plus = inst.q_plus @ member  # (n, m): coherence mass of v against each cluster
    s_mto = inst.q_minus @ member  # (n, m): net flow from v into each cluster
    return (1.0 - alpha) * s_plus + alpha * (np.roll(s_mto, -1, axis=1) - np.roll(s_mto, 1, axis=1))


def _move(cols: list[np.ndarray], coh: np.ndarray, flow: np.ndarray, a: int, t: int) -> None:
    """Update the column views `cols` of contrib in place for a vertex with
    weight rows `coh` and `flow` (see `_weight_rows`) leaving cluster a for
    cluster t (O(n)).

    Six updates in this order, not one fancy-indexed add: with m = 2 or 3
    the columns a-1, a+1, t-1 and t+1 coincide, and the order fixes the
    rounding."""
    m = len(cols)
    np.subtract(cols[a], coh, out=cols[a])
    np.add(cols[t], coh, out=cols[t])
    np.subtract(cols[a - 1], flow, out=cols[a - 1])
    np.add(cols[(a + 1) % m], flow, out=cols[(a + 1) % m])
    np.add(cols[t - 1], flow, out=cols[t - 1])
    np.subtract(cols[(t + 1) % m], flow, out=cols[(t + 1) % m])


def _weight_rows(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """(coherence, flow_in): row v is (1 - alpha) q_plus[:, v] and
    alpha q_minus[:, v], the same products as scaling those columns.
    q_plus is symmetric, so its rows are its columns."""
    coherence = (1.0 - inst.alpha) * inst.q_plus
    flow_in = np.multiply(inst.alpha, inst.q_minus.T, order="C")
    return coherence, flow_in


def _threshold(reference: float) -> float:
    """The value a gain beyond rounding must exceed.  Running sums of deltas
    drift by ulps of the weights, so it grows with the value's magnitude."""
    return reference + 1e-12 * max(1.0, abs(reference))


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

    assign = [-1] * n
    # gain[v, t]: objective delta of putting v into t given current partials
    gain = np.zeros((n, m))
    cols = [gain[:, t] for t in range(m)]

    def commit(v: int, t: int) -> None:
        assign[v] = t
        gain[v] = -np.inf
        np.add(cols[t], coherence[v], out=cols[t])
        np.add(cols[t - 1], flow_in[v], out=cols[t - 1])
        np.subtract(cols[(t + 1) % m], flow_in[v], out=cols[(t + 1) % m])

    for t, v in enumerate(seeds):
        commit(v, t)
    for _ in range(n - m):
        flat = int(gain.argmax())  # first maximum = lowest (v, t) on ties
        v, t = divmod(flat, m)
        commit(v, t)
    return Clustering(assign, m)


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
    updates.  A move searches the whole matrix: the matrix is the first n m
    entries of a buffer whose last entry is +inf, and `own[v, t]` is the
    buffer position of v's own cluster, or of that sentinel for the
    stay-put entry and for every entry of a vertex already moved this pass.
    Gathering through `own` and subtracting gives the delta matrix with
    -inf at those entries.  The first maximum is then the lowest unmoved
    vertex, then the lowest cluster.
    """
    n, m = inst.n, inst.m
    rng = np.random.default_rng(rng_seed)
    coherence, flow_in = _weight_rows(inst)
    sentinel = n * m
    store = np.empty(sentinel + 1)
    store[sentinel] = np.inf
    contrib = store[:sentinel].reshape(n, m)
    cols = [contrib[:, t] for t in range(m)]
    delta = np.empty((n, m))
    rows = np.arange(n)

    best_assign = list(start.assignment)
    best_val = objective(inst, start)

    def one_pass(assign: list[int], value: float) -> None:
        nonlocal best_assign, best_val
        assign = assign.copy()
        member = np.zeros((n, m))
        member[rows, assign] = 1.0
        contrib[:] = _contributions(inst, member)
        sizes = np.bincount(assign, minlength=m).tolist()
        own = np.repeat(rows * m + assign, m).reshape(n, m)
        own[rows, assign] = sentinel
        threshold = _threshold(best_val)
        for _ in range(n):
            store.take(own, out=delta)
            np.subtract(contrib, delta, out=delta)
            candidates = delta
            if min(sizes) < 2:  # else no move empties or fills a cluster: every tier is 0
                counts = np.array(sizes)
                # change in number of empty clusters per candidate move
                empty_shift = np.where(counts == 0, -1, 0)[None, :] + (counts[assign] == 1).astype(int)[:, None]
                empty_shift = np.where(np.isfinite(delta), empty_shift, np.inf)
                tier = empty_shift.min()
                if not np.isfinite(tier):
                    break
                candidates = np.where(empty_shift == tier, delta, -np.inf)
            k = int(candidates.argmax())
            gain = candidates.item(k)
            if gain == -np.inf:
                break
            v, t = divmod(k, m)
            a = assign[v]
            value += gain
            _move(cols, coherence[v], flow_in[v], a, t)
            sizes[a] -= 1
            sizes[t] += 1
            assign[v] = t
            own[v] = sentinel
            if value > threshold and min(sizes) >= 1:
                best_val = value
                best_assign = assign.copy()
                threshold = _threshold(best_val)

    def perturb(assign: list[int]) -> list[int]:
        assign = np.array(assign)
        out = assign.copy()
        for t in range(m):
            members = np.nonzero(assign == t)[0]
            k = (len(members) + 1) // 2
            chosen = rng.choice(members, size=k, replace=False)
            out[chosen] = (t + 1) % m
        return out.tolist()

    perturbations = 0
    current = best_assign
    current_val = best_val
    while True:
        before = best_val
        one_pass(current, current_val)
        if best_val > _threshold(before):
            current = best_assign
            current_val = best_val
            continue
        if perturbations >= MAX_PERTURBATIONS:
            break
        perturbations += 1
        current = perturb(best_assign)
        current_val = objective(inst, Clustering(current, m))
    return Clustering(best_assign, m)


def sparsify(inst: Instance, engine_handle: Callable[[Instance], object]) -> Optional[Clustering]:
    """Root-solve a reduced instance keeping only the heaviest pair weights.

    All but the top `SPARSIFY_KEEP_FRACTION` of unordered pairs by undirected
    weight (ties by lexicographic pair order) are zeroed in both directions,
    and the handle runs the solver on the reduction; the caller re-scores the
    result under the original objective.  Returns None when the sub-solve produces
    no integral solution.
    """
    n = inst.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs.sort(key=lambda p: (-inst.q_plus[p[0], p[1]], p))
    keep = int(np.ceil(SPARSIFY_KEEP_FRACTION * len(pairs)))
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
