"""Reference greedy and exchange heuristics used only by the test suite.

The exchange recomputes every vertex's move delta from scratch before each
move (O(n^2 m) per move), the way `heuristics.exchange` did before it kept
its contribution matrix current column by column.  The greedy scales the
weight columns on every commit and adds them to the unplaced vertices only,
the way `heuristics.greedy` did before it precomputed weight rows.  Neither
shares code with the production heuristics beyond the objective, so a test
can hold those to the same clusterings.
"""

import numpy as np

from cyclecluster.instance import Clustering, objective


def delta_matrix(inst, assign, member):
    """delta[v, t] = objective change from moving v into cluster t."""
    alpha = inst.alpha
    s_plus = inst.q_plus @ member
    s_mto = inst.q_minus @ member
    contrib = (1.0 - alpha) * s_plus + alpha * (np.roll(s_mto, -1, axis=1) - np.roll(s_mto, 1, axis=1))
    current = contrib[np.arange(len(assign)), assign]
    return contrib - current[:, None]


def greedy(inst):
    """Same seeds, gains and tie-breaking as `heuristics.greedy`."""
    n, m = inst.n, inst.m
    alpha = inst.alpha
    degree = inst.q_plus.sum(axis=1)
    seeds = sorted(range(n), key=lambda v: (-degree[v], v))[:m]

    assign = np.full(n, -1, dtype=np.int64)
    gain = np.zeros((n, m))

    def commit(v, t):
        assign[v] = t
        gain[v, :] = -np.inf
        unplaced = assign < 0
        if unplaced.any():
            gain[unplaced, t] += (1.0 - alpha) * inst.q_plus[unplaced, v]
            gain[unplaced, (t - 1) % m] += alpha * inst.q_minus[unplaced, v]
            gain[unplaced, (t + 1) % m] += alpha * inst.q_minus[v, unplaced]

    for t, v in enumerate(seeds):
        commit(v, t)
    for _ in range(n - m):
        v, t = divmod(int(np.argmax(gain)), m)
        commit(v, t)
    return Clustering(tuple(int(a) for a in assign), m)


def _improves(value, reference):
    return value > reference + 1e-12 * max(1.0, abs(reference))


def exchange(inst, start, rng_seed=0, max_perturbations=5):
    """Same search and tie-breaking as `heuristics.exchange`."""
    n, m = inst.n, inst.m
    rng = np.random.default_rng(rng_seed)

    best_assign = start.as_array()
    best_val = objective(inst, start)

    def one_pass(assign, value):
        nonlocal best_assign, best_val
        assign = assign.copy()
        member = np.zeros((n, m))
        member[np.arange(n), assign] = 1.0
        sizes = member.sum(axis=0)
        processed = np.zeros(n, dtype=bool)
        for _ in range(n):
            delta = delta_matrix(inst, assign, member)
            delta[processed, :] = -np.inf
            delta[np.arange(n), assign] = -np.inf
            empty_shift = np.where(sizes == 0, -1, 0)[None, :] + (sizes[assign] == 1).astype(int)[:, None]
            empty_shift = np.where(np.isfinite(delta), empty_shift, np.inf)
            tier = empty_shift.min()
            if not np.isfinite(tier):
                break
            delta = np.where(empty_shift == tier, delta, -np.inf)
            v, t = divmod(int(np.argmax(delta)), m)
            if not np.isfinite(delta[v, t]):
                break
            value += float(delta[v, t])
            member[v, assign[v]] = 0.0
            sizes[assign[v]] -= 1
            assign[v] = t
            member[v, t] = 1.0
            sizes[t] += 1
            processed[v] = True
            if _improves(value, best_val) and sizes.min() >= 1:
                best_val = value
                best_assign = assign.copy()
        return assign, value

    def perturb(assign):
        out = assign.copy()
        for t in range(m):
            members = np.nonzero(assign == t)[0]
            chosen = rng.choice(members, size=(len(members) + 1) // 2, replace=False)
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
        if perturbations >= max_perturbations:
            break
        perturbations += 1
        current = perturb(best_assign)
        current_val = objective(inst, Clustering(tuple(int(a) for a in current), m))
    return Clustering(tuple(int(a) for a in best_assign), m)
