"""Reference exchange heuristic used only by the test suite.

It recomputes every vertex's move delta from scratch before each move
(O(n^2 m) per move), the way `heuristics.exchange` did before it kept its
contribution matrix current column by column.  It shares no code with the
production heuristic beyond the objective, so a test can hold the
incremental version to the same clusterings.
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
