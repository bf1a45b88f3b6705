"""Independent brute-force separation oracles used only by the test suite.

These deliberately re-derive everything with explicit loops and direct point
lookups so they share no code path with the production separators.  They
derive cuts by variable name, ('y', i, j) or ('z', i, j), and map them to the
model's columns only to compare with what the separators emit.
"""

from itertools import permutations

import numpy as np

from cyclecluster.formulation import clustering_to_point
from cyclecluster.instance import Clustering
from cyclecluster.separation import Cuts


def column(space, var):
    """Model column of ('y', i, j) or ('z', i, j); -1 if the pair has none."""
    kind, i, j = var
    return int((space.ycol if kind == "y" else space.zcol)[i, j])


def _val(space, point, var):
    col = column(space, var)
    return 0.0 if col < 0 else float(point[col])


def named_cut(space, coeffs, rhs, family="", violation=0.0):
    """The column form of a cut given by variable name, as a batch of one."""
    return Cuts.from_tables([(np.array([[column(space, v) for v in coeffs]]), list(coeffs.values()), rhs, family, [violation])], space.ncols)


def _support(space, coeffs, rhs):
    return named_cut(space, coeffs, rhs).keys[0]


def brute_triangle_cuts(space, point, tol):
    """Every violated triangle template over all ordered triples; column support -> violation."""
    n, m = space.n, space.m
    exists = lambda i, j: space.ycol[i, j] >= 0
    y = lambda i, j: _val(space, point, ("y", i, j))
    z = lambda i, j: _val(space, point, ("z", i, j))
    found = {}

    def add(coeffs, rhs):
        lhs = sum(c * _val(space, point, v) for v, c in coeffs.items())
        if lhs > rhs + tol:
            found[_support(space, coeffs, rhs)] = lhs - rhs

    for i, j, k in permutations(range(n), 3):
        if not (exists(i, j) and exists(j, k) and exists(i, k)):
            continue
        if m == 3:
            add({("z", i, j): 1.0, ("z", j, k): 1.0, ("z", k, i): -1.0}, 1.0)
            continue
        yij = ("y", min(i, j), max(i, j))
        yjk = ("y", min(j, k), max(j, k))
        yik = ("y", min(i, k), max(i, k))
        add({yij: 1.0, yjk: 1.0, yik: -1.0}, 1.0)
        add({yij: 1.0, ("z", i, k): 1.0, ("z", j, k): -1.0}, 1.0)
        add({yij: 1.0, ("z", k, i): 1.0, ("z", k, j): -1.0}, 1.0)
        add(
            {
                yij: 1.0,
                yjk: 1.0,
                yik: -1.0,
                ("z", i, j): 0.5,
                ("z", j, i): 0.5,
                ("z", j, k): 0.5,
                ("z", k, j): 0.5,
                ("z", i, k): -0.5,
                ("z", k, i): -0.5,
            },
            1.0,
        )
        if m == 4:
            add(
                {
                    ("z", i, j): 1.0,
                    ("z", i, k): 1.0,
                    yjk: -2.0,
                    ("z", j, k): -1.0,
                    ("z", k, j): -1.0,
                    ("z", j, i): -1.0,
                    ("z", k, i): -1.0,
                },
                0.0,
            )
        else:
            add({("z", i, j): 1.0, ("z", i, k): 1.0, yjk: -1.0}, 1.0)
            add({("z", j, i): 1.0, ("z", k, i): 1.0, yjk: -1.0}, 1.0)
    return found


def brute_best_subtour_path_violation(space, point, i1, tol):
    """Max violation over all simple cycles (length < m) and simple paths of
    exactly m - 1 arcs starting at i1, with y-terms on all arcs but the first
    and the closing same-cluster term on paths.  Returns 0.0 if nothing is
    violated beyond tol."""
    n, m = space.n, space.m
    y = lambda a, b: _val(space, point, ("y", a, b))
    z = lambda a, b: _val(space, point, ("z", a, b))
    others = [v for v in range(n) if v != i1]
    best = 0.0
    for ell in range(2, m):  # cycles with ell arcs
        for interior in permutations(others, ell - 1):
            walk = (i1,) + interior + (i1,)
            lhs = z(walk[0], walk[1])
            for a, b in zip(walk[1:-1], walk[2:]):
                lhs += z(a, b) + y(a, b)
            viol = lhs - (ell - 1)
            if viol > tol and viol > best:
                best = viol
    if m >= 3:
        for interior in permutations(others, m - 1):
            walk = (i1,) + interior
            lhs = z(walk[0], walk[1])
            for a, b in zip(walk[1:-1], walk[2:]):
                lhs += z(a, b) + y(a, b)
            lhs += y(i1, walk[-1])
            viol = lhs - (m - 1)
            if viol > tol and viol > best:
                best = viol
    return best


def random_fractional_point(space, rng, components=4, noise=0.0):
    """Convex combination of integral points, optionally perturbed while
    keeping x row sums at one and every pair block within y + z + z' <= 1."""
    n, m = space.n, space.m
    pts = []
    for _ in range(components):
        while True:
            a = rng.integers(0, m, size=n)
            if len(set(a.tolist())) == m:
                break
        pts.append(clustering_to_point(space, Clustering(tuple(int(v) for v in a), m)))
    weights = rng.dirichlet(np.ones(components))
    point = np.einsum("c,cv->v", weights, np.asarray(pts))
    if noise > 0.0:
        x = point[: space.num_x].reshape(n, m)
        x += rng.uniform(0, noise, size=x.shape)
        x /= x.sum(axis=1, keepdims=True)
        tail = point[space.num_x :].reshape(-1, 3)
        tail += rng.uniform(0, noise, size=tail.shape)
        over = tail.sum(axis=1)
        scale = np.where(over > 1.0, 1.0 / over, 1.0)
        tail *= scale[:, None]
        point = np.concatenate([x.ravel(), tail.ravel()])
    return point


def random_box_point(space, rng):
    """Unstructured point: Dirichlet x rows, per-pair (y, z, z') scaled under 1."""
    n, m = space.n, space.m
    x = rng.dirichlet(np.ones(m), size=n)
    tail = rng.uniform(0, 1, size=(len(space.pairs), 3))
    over = tail.sum(axis=1)
    tail *= np.where(over > 1.0, 1.0 / over, 1.0)[:, None]
    return np.concatenate([x.ravel(), tail.ravel()])


def partition_seeds(Y, Z, E, almost_violated):
    """The partition separator's seeds by a scalar loop over (j, k, i): the
    (slack, S, T) of every two-against-one triangle within `almost_violated`
    of being tight, sorted."""
    n = Y.shape[0]
    seeds = []
    for j in range(n):
        for k in range(j + 1, n):
            if not E[j, k]:
                continue
            for i in range(n):
                if i == j or i == k or not (E[i, j] and E[i, k]):
                    continue
                slack_fwd = 1.0 - (Z[i, j] + Z[i, k] - Y[j, k])
                if slack_fwd < almost_violated:
                    seeds.append((slack_fwd, (i,), (j, k)))
                slack_bwd = 1.0 - (Z[j, i] + Z[k, i] - Y[j, k])
                if slack_bwd < almost_violated:
                    seeds.append((slack_bwd, (j, k), (i,)))
    seeds.sort(key=lambda s: (s[0], s[1], s[2]))
    return seeds
