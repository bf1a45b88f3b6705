"""The benchmark's workloads: their instances, one operation each, and the
checks every operation's output must pass.

Every workload is a fixed slice of generated instances.  The run seed and
the pass number relabel the vertices of each instance by a random
permutation, so each seed hands the solver different inputs of the same
difficulty: the optimum and the planted objective do not change under
relabeling.  A fresh draw of
weak-signal instances per seed would spread the node counts, and with them
the times, by more than any bound worth gating on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from cyclecluster import engine
from cyclecluster.engine import SolverConfig
from cyclecluster.generator import generate
from cyclecluster.instance import Clustering, Instance, objective
from cyclecluster.oracle import enumerate_optimal

SLICE_SEED = 20240116  # selects the base instances; the run seed never changes them
WEAK = 0.25  # forward_strength of weak-signal instances
DEFAULT = 1.0  # the generator's default forward_strength
REL_TOL = 1e-9


@dataclass(frozen=True)
class Case:
    """One relabeled instance with what its checks need."""

    label: str
    inst: Instance
    planted_value: float
    base: Instance  # the instance before relabeling, for the oracle


@dataclass(frozen=True)
class Outcome:
    """What the checks read from one operation's output."""

    value: float  # objective of the returned clustering
    nodes: int
    gap_percent: float
    signature: tuple  # deterministic counters; equal on every repeat of the case
    problems: list
    wins: dict = field(default_factory=dict)  # incumbents found outside any solve


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def _nonempty(c: Clustering) -> bool:
    return int(np.bincount(c.as_array(), minlength=c.m).min()) >= 1


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple  # (n, m, forward_strength, generator index) each
    config: Optional[SolverConfig]  # None: greedy then exchange, without an LP
    warm_up: tuple  # (n, m) of an instance run once before timing
    oracle: bool = False  # compare optima with brute-force enumeration

    def case(self, seed: int, pass_index: int, index: int) -> Case:
        """Instance `index` of the slice, relabeled for this seed and pass."""
        n, m, strength, k = self.instances[index]
        base, planted = generate(n, m, forward_strength=strength, rng_seed=[SLICE_SEED, n, m, int(strength * 100), k])
        perm = np.random.default_rng([seed, pass_index, index]).permutation(n)
        inst = Instance(n=n, m=m, alpha=base.alpha, Q=base.Q[np.ix_(perm, perm)])
        planted_value = objective(inst, Clustering(tuple(planted.assignment[v] for v in perm), m))
        if planted_value <= 0:
            raise ValueError(f"planted objective of n={n} m={m} k={k} is {planted_value}, not positive")
        return Case(f"n{n}_m{m}_f{strength}_k{k}", inst, planted_value, base)

    def warm(self) -> None:
        inst, _ = generate(*self.warm_up, rng_seed=[SLICE_SEED, 0])
        self.execute(inst)

    def execute(self, inst: Instance):
        """The timed operation.  Calls go through `engine`'s names, so that
        the tracer's wrappers see them."""
        if self.config is None:
            start = engine.greedy(inst)
            return start, engine.exchange(inst, start)
        return engine.solve(inst, self.config)

    def inspect(self, case: Case, out, optima: dict) -> Outcome:
        """Check one output; `optima` caches brute-force optima by label."""
        problems = []
        inst = case.inst
        if self.config is None:
            start, best = out
            start_value, value = objective(inst, start), objective(inst, best)
            if value < start_value:
                problems.append(f"exchange {value!r} is below greedy {start_value!r}")
            if not (_nonempty(start) and _nonempty(best)):
                problems.append("a cluster is empty")
            signature = (start.assignment, best.assignment, start_value.hex(), value.hex())
            return Outcome(value, 0, 0.0, signature, problems, {"greedy": 1, "exchange": int(value > start_value)})

        res = out
        if res.best_clustering is None:
            return Outcome(float("nan"), res.nodes_processed, res.gap_percent, (res.status,), ["no incumbent"])
        value = objective(inst, res.best_clustering)
        if not _close(value, res.primal_bound):
            problems.append(f"objective {value!r} != primal bound {res.primal_bound!r}")
        if not res.dual_bound >= res.primal_bound:
            problems.append(f"dual bound {res.dual_bound!r} < primal bound {res.primal_bound!r}")
        if res.optimal and value < case.planted_value and not _close(value, case.planted_value):
            problems.append(f"optimum {value!r} below planted {case.planted_value!r}")
        if self.oracle:
            if not res.optimal:
                problems.append(f"status {res.status}, expected optimal")
            if case.label not in optima:
                optima[case.label] = enumerate_optimal(case.base)[1]
            if not _close(value, optima[case.label]):
                problems.append(f"optimum {value!r} != enumerated {optima[case.label]!r}")
        signature = (
            res.status,
            res.nodes_processed,
            tuple(sorted(res.cut_counts.items())),
            tuple((h, s["runs"], s["successes"]) for h, s in sorted(res.heuristic_stats.items())),
            float(res.primal_bound).hex(),
            float(res.dual_bound).hex(),
        )
        return Outcome(value, res.nodes_processed, res.gap_percent, signature, problems)


WORKLOADS = {
    w.name: w
    for w in (
        # Weak signal keeps the root gap open, so the tree does the work: many
        # small LPs re-solved after one bound change.  A third of these draws
        # close at the root and belong to the root's figures, not the tree's:
        # the slice holds the first 10 that branched when it was chosen.
        Workload(
            "tree",
            tuple((10, 3, WEAK, k) for k in (0, 1, 2, 6, 7, 9, 10, 11, 12, 13)),
            SolverConfig(time_limit_s=120.0, node_limit=5000),
            (7, 3),
            oracle=True,
        ),
        # Root cut loop only: a few large cold LPs, every separator including
        # partition (m >= 5), a large cut pool and the largest model build.
        Workload(
            "root",
            ((12, 5, WEAK, 0), (12, 6, WEAK, 0), (13, 5, WEAK, 0), (13, 6, WEAK, 0), (14, 5, WEAK, 0)),
            SolverConfig(time_limit_s=120.0, node_limit=1),
            (8, 5),
        ),
        # The LP-free path of `cyclecluster heuristic exchange`, at both
        # signals, with n stepping evenly through 100-298.
        Workload(
            "heuristic",
            tuple((100 + 2 * j, 5 + j % 4, (WEAK, DEFAULT)[j // 4 % 2], j) for j in range(100)),
            None,
            (40, 5),
        ),
    )
}
