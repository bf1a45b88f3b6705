"""Branch and cut on the compact formulation.

Best timeout-aware best-bound search with vertex branching, globally valid
cuts from the three separator families, LP bounding with a safety pad, and
incumbents seeded by the primal heuristics before the tree and improved by
the exchange heuristic on every new incumbent.  One LP serves the whole
search: nodes change its column bounds and rows are appended or deleted in
place, so every solve starts warm from the previous basis.  Each LP gets the
time left; a node whose LP hits the limit or fails goes back on the heap with
the last bound proven for it, and the search stops with its incumbent.

The root cut loop keeps its LP small with lazy rows and aging (Achterberg,
Constraint Integer Programming, 2007).  The LP starts from the assign, cover
and pair rows only, which never leave it; every linking row starts in a lazy
pool.  The loop solves once per round.  After each solve it deletes every
cut or linking row that has been slack for `ROW_AGE_LIMIT` solves in a row;
such a row is basic, so the last optimum stays optimal.  Then the round's
cuts and the pooled linking rows its point violates, checked exactly, go
into the LP in one batch.  The cuts in the LP are the only cut pool: at an
LP optimum every row holds to within HiGHS's feasibility tolerance, far
below the violation `TOL_CUT` a separator asks of a cut, so a separated cut
is never one the LP already has, and the engine keeps no set of them.  Two
families can state the same inequality, so a round keeps the first cut per
support key.  A deleted cut can be separated again; a deleted linking row
goes back to the lazy pool.  An LP without some linking rows is a
relaxation, so every round's value is a valid bound.  Every round that
separates counts toward the round limit; after the last one, rounds add only
violated linking rows, so the loop ends at a point of the whole model unless
the bound prunes.  A root whose time runs out at a point that violates
linking rows goes back on the heap like one whose LP hit the limit.  The
linking rows still in the pool when the root ends stay there through the
tree: each node's cut loop runs the same way, with `cut_rounds_node`
separating rounds, so every node also ends at a point of the whole model,
and a node whose time runs out before then goes back on the heap.  Tree nodes do not age rows.

Shifting every cluster label one step around the cycle keeps the objective,
so each clustering comes with m rotations of equal value.  Every search pins
vertex 0 to the first cluster by a lower bound of one on x[0,0]; each
rotation orbit meets that subspace exactly once, so the optimum over it is
the global one.  The model `build_cc` returns stays unpinned.

A node whose LP optimum is fractional in x branches on a whole vertex: the
one whose largest x[i,s] is smallest.  It gets one child per cluster s the
vertex may still join, each fixing the vertex's row of x to cluster s, so
the children partition the subtree.  Nodes whose LP optimum is integral in
x but slack in the linearization variables (possible when clusters sit more
than one step apart) fall back to two children on the most fractional y/z
column.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from cyclecluster.formulation import TOL_INTEGRALITY, ConversionError, Csr, build_cc, point_to_clustering
from cyclecluster.heuristics import exchange, greedy, rounding, sparsify
from cyclecluster.instance import Clustering, Instance, ParameterError, objective
from cyclecluster.lp import LpSolution, lp_relaxation, solve_lp
from cyclecluster.separation import Cuts, first_rows, separate_partition, separate_subtour_path, separate_triangle

log = logging.getLogger(__name__)

GAP_INFINITE = 1e20

SEPARATOR_ORDER = ("triangle", "subtour_path", "partition")
HEURISTIC_NAMES = ("greedy", "sparsify", "rounding", "exchange")

# A solve works on Q scaled to a total weight near one, so these absolute
# tolerances, `TOL_INTEGRALITY` imported above and the separators'
# `separation.TOL_CUT` act relative to the weights.
EPSILON_GAP = 1e-6  # prunes a node whose bound is within it of the incumbent; pads the gap's denominator
DUAL_PAD = 1e-6  # added to LP bounds before pruning decisions
MAX_CUTS_PER_FAMILY = 200
PARTITION_MIN_M = 5  # partition separation engaged only for m >= this
LOG_EVERY_NODES = 100  # an INFO progress line after every this many nodes
ROW_AGE_LIMIT = 2  # root solves a cut or linking row may stay slack before it is deleted
TOL_SLACK = 1e-6  # a row with more slack than this is slack (and basic)
TOL_LINK = 1e-9  # a lazy linking row violated by more than this goes back into the LP
CORE_ROW = -1  # origin of the assign, cover and pair rows, which never leave the LP
CUT_ROW = -2  # origin of a cut row


@dataclass(frozen=True)
class SolverConfig:
    time_limit_s: float = 300.0
    node_limit: Optional[int] = None
    cut_rounds_root: int = 10
    cut_rounds_node: int = 2
    separators: tuple = SEPARATOR_ORDER
    heuristics: tuple = HEURISTIC_NAMES
    rng_seed: int = 0

    def __post_init__(self):
        if not self.time_limit_s > 0:  # NaN fails this test too
            raise ParameterError("time limit must be positive")
        if self.node_limit is not None and self.node_limit <= 0:
            raise ParameterError("node limit must be positive")
        if self.cut_rounds_root < 0 or self.cut_rounds_node < 0:
            raise ParameterError("cut rounds must be nonnegative")
        unknown = set(self.separators) - set(SEPARATOR_ORDER)
        if unknown:
            raise ParameterError(f"unknown separators: {sorted(unknown)}")
        unknown = set(self.heuristics) - set(HEURISTIC_NAMES)
        if unknown:
            raise ParameterError(f"unknown heuristics: {sorted(unknown)}")


@dataclass(frozen=True)
class BoundEvent:
    """A change of the search's bounds.  A report writes it as the list `[time_s,
    nodes, primal, dual, event]`, a missing bound as null; `bench.bound_events` reads it back."""

    time_s: float
    nodes: int
    primal: float
    dual: float
    event: str


@dataclass
class SolveResult:
    # "optimal" | "time_limit" | "node_limit" | "lp_error"; after "lp_error"
    # (an LP that HiGHS could not solve) the bounds and incumbent stay valid
    status: str
    best_clustering: Optional[Clustering]
    primal_bound: float
    dual_bound: float
    gap_percent: float
    nodes_processed: int
    wall_time_s: float
    bound_history: list[BoundEvent]
    cut_counts: dict[str, int]
    heuristic_stats: dict[str, dict[str, int]]
    root_lp_values: list[float] = field(default_factory=list)
    root_dual_bound: float = math.inf
    lp_solves: int = 0
    simplex_iterations: int = 0
    lp_rows_deleted: int = 0
    link_rows_readded: int = 0  # put back into the LP from the lazy pool, at the root and in the tree

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def report(self, instance: str, inst: Instance, config: SolverConfig) -> dict:
        """The JSON report of this solve of `inst`, named `instance`, under
        `config`: the instance's size, every field of the result as
        `json_value` converts it (a gap at or above `GAP_INFINITE` reads
        "inf"), the primal and dual integrals against the run's own best
        value, and the config."""
        out = {"instance": instance, "n": inst.n, "m": inst.m, "alpha": inst.alpha}
        out.update((f.name, json_value(getattr(self, f.name))) for f in fields(self))
        if self.gap_percent >= GAP_INFINITE:
            out["gap_percent"] = "inf"
        ref = self.primal_bound if math.isfinite(self.primal_bound) else 0.0
        out["primal_integral"] = primal_integral(self.bound_history, self.wall_time_s, ref)
        out["dual_integral"] = dual_integral(self.bound_history, self.wall_time_s, ref)
        out["config"] = json_value(asdict(config))
        return out


def json_value(value):
    """`value` in JSON's terms: a non-finite float becomes None, a
    clustering its list of 1-based clusters, a bound event the row
    `[time, nodes, primal, dual, kind]`; lists, tuples and dicts convert
    element by element."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, Clustering):
        return [a + 1 for a in value.assignment]
    if isinstance(value, BoundEvent):
        value = astuple(value)
    if isinstance(value, (list, tuple)):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    return value


def sparsify_config(config: SolverConfig, time_limit_s: float) -> SolverConfig:
    """The config of sparsify's sub-solve: the root alone within
    `time_limit_s`, with every heuristic of `config` but sparsify."""
    return replace(
        config,
        node_limit=1,
        time_limit_s=time_limit_s,
        heuristics=tuple(h for h in config.heuristics if h != "sparsify"),
    )


def compute_gap(primal: float, dual: float) -> float:
    """Relative gap in percent: 100 (d - p) / min(p + eps, d + eps), with
    eps = `EPSILON_GAP`.

    Returns the infinite-gap sentinel when either bound is missing, the bounds
    have opposite signs, or the denominator vanishes; the value can exceed
    100 percent.
    """
    if primal is None or dual is None or not math.isfinite(primal) or not math.isfinite(dual):
        return GAP_INFINITE
    if primal * dual < 0:
        return GAP_INFINITE
    denom = min(primal + EPSILON_GAP, dual + EPSILON_GAP)
    if abs(denom) <= EPSILON_GAP * EPSILON_GAP:
        return GAP_INFINITE
    return 100.0 * (dual - primal) / denom


def _distance(value: float, reference: float) -> float:
    """Berthold's primal gap, which is free of the weights' scale: 1 for a
    missing value, else min(1, |value - reference| / max(|value|, |reference|)),
    and 0 for values apart by at most 1e-6 times the larger (both zero included)."""
    if value is None or not math.isfinite(value):
        return 1.0
    diff = abs(reference - value)
    larger = max(abs(reference), abs(value))
    if diff <= 1e-6 * larger:
        return 0.0
    return min(1.0, diff / larger)


def _bound_integral(history: Sequence[BoundEvent], final_time: float, reference: float, attr: str) -> float:
    events = sorted(history, key=lambda e: e.time_s)
    integral = 0.0
    t_prev = 0.0
    current = -math.inf if attr == "primal" else math.inf
    for ev in events:
        t = min(max(ev.time_s, t_prev), final_time)
        integral += (t - t_prev) * _distance(current, reference)
        current = getattr(ev, attr)
        t_prev = t
    integral += max(0.0, final_time - t_prev) * _distance(current, reference)
    return integral


def primal_integral(history: Sequence[BoundEvent], final_time: float, reference: float) -> float:
    """Time-weighted normalized distance of the incumbent to the reference."""
    return _bound_integral(history, final_time, reference, "primal")


def dual_integral(history: Sequence[BoundEvent], final_time: float, reference: float) -> float:
    """Time-weighted normalized distance of the dual bound to the reference."""
    return _bound_integral(history, final_time, reference, "dual")


class _Search:
    """One branch and cut.  It works on the instance with Q divided by the
    power of two nearest its total weight, which is exact in floating point,
    and reports every value multiplied back, in the caller's units."""

    def __init__(self, inst: Instance, config: SolverConfig):
        total = float(inst.Q.sum())
        self.scale = 2.0 ** round(math.log2(total)) if total > 0 else 1.0
        self.inst = Instance(n=inst.n, m=inst.m, alpha=inst.alpha, Q=inst.Q / self.scale)
        self.config = config
        self.t0 = time.perf_counter()
        self.model = build_cc(self.inst)
        self.space = self.model.space
        self.model.lo[self.space.x(0, 0)] = 1.0  # one clustering per rotation orbit
        # The LP starts from the model's core rows: assign, cover and pair.
        # The linking rows after them start in the lazy pool: one CSR block,
        # with `link_out[k]` set while row k is out of the LP.
        num_core = self.model.core_rows
        self.lp = lp_relaxation(self.model, num_core)
        self.link_rows = self.model.rows[num_core:]
        self.link_upper = self.model.row_upper[num_core:]
        self.link_out = np.ones(self.link_upper.size, dtype=bool)
        # One origin per LP row: CORE_ROW, CUT_ROW, or k for linking row k.
        self.row_origin = np.full(num_core, CORE_ROW)
        self.row_age = np.zeros(0, dtype=np.int64)  # root solves slack in a row, per LP row
        self.lp_rows_deleted = 0
        self.link_rows_readded = 0
        self.incumbent: Optional[Clustering] = None
        self.primal = -math.inf
        self.dual = math.inf
        self.history: list[BoundEvent] = []
        self.cut_counts: Counter[str] = Counter()
        self.heur_stats = {name: {"runs": 0, "successes": 0} for name in HEURISTIC_NAMES}
        self.nodes_processed = 0
        self.status = "optimal"
        self.root_lp_values: list[float] = []
        self.root_dual_bound = math.inf
        self.lp_solves = 0
        self.simplex_iterations = 0
        # search tree
        self.heap: list[tuple[float, int, dict[int, float]]] = []
        self.next_id = 0

    # -- bookkeeping --------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def out_of_time(self) -> bool:
        return self.elapsed() >= self.config.time_limit_s

    def record(self, kind: str) -> None:
        self.history.append(BoundEvent(self.elapsed(), self.nodes_processed, self.primal * self.scale, self.dual * self.scale, kind))

    def offer(self, clustering: Clustering, source: str) -> bool:
        val = objective(self.inst, clustering)
        improved = val > self.primal + 1e-12
        if improved:
            self.primal = val
            self.incumbent = clustering
            if source in self.heur_stats:
                self.heur_stats[source]["successes"] += 1
            self.record(f"incumbent:{source}")
        if improved and source != "exchange" and "exchange" in self.config.heuristics:
            self.heur_stats["exchange"]["runs"] += 1
            polished = exchange(self.inst, self.incumbent, rng_seed=self.config.rng_seed)
            pval = objective(self.inst, polished)
            if pval > self.primal + 1e-12:
                self.primal = pval
                self.incumbent = polished
                self.heur_stats["exchange"]["successes"] += 1
                self.record("incumbent:exchange")
        return improved

    # -- LP rows ------------------------------------------------------------

    def add_rows(self, cuts: Cuts, link: np.ndarray) -> int:
        """Append the cuts, then the given linking rows of the lazy pool, to
        the LP in one block.  A cut stays in the LP unless the root cut loop
        ages it out.

        Every separator emits globally valid cuts, so each node inherits
        every cut in the LP.  Returns the number of cuts added.
        """
        if not (len(cuts) or link.size):
            return 0
        self.cut_counts.update(cuts.family.tolist())
        self.link_out[link] = False
        block = Csr.stack([rows for rows in (cuts, self.link_rows.take(link)) if len(rows)])
        upper = np.concatenate([cuts.rhs, self.link_upper[link]])
        self.lp.add_rows(block, np.full(upper.size, -np.inf), upper)
        self.row_origin = np.concatenate([self.row_origin, np.full(len(cuts), CUT_ROW), link])
        return len(cuts)

    def age_rows(self, values: np.ndarray) -> None:
        """Delete every cut and linking row slack at `ROW_AGE_LIMIT` solves in a row.

        Those rows are all `<=` rows, so a row's slack is its upper bound
        minus its activity; the core rows' slack is read but never acted on."""
        slack = self.lp.row_upper - self.lp.rows @ values
        age = np.zeros(slack.size, dtype=np.int64)  # rows appended since the last call start at 0
        age[: self.row_age.size] = self.row_age
        self.row_age = np.where(slack > TOL_SLACK, age + 1, 0)
        drop = np.flatnonzero((self.row_age >= ROW_AGE_LIMIT) & (self.row_origin != CORE_ROW))
        if drop.size == 0:
            return
        origin = self.row_origin[drop]
        self.link_out[origin[origin >= 0]] = True
        self.lp.delete_rows(drop)
        keep = np.ones(slack.size, dtype=bool)
        keep[drop] = False
        self.row_origin = self.row_origin[keep]
        self.row_age = self.row_age[keep]
        self.lp_rows_deleted += drop.size

    def violated_linking_rows(self, values: np.ndarray) -> np.ndarray:
        """The linking rows out of the LP that `values` violates."""
        if not self.link_out.any():
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.link_out & (self.link_rows @ values - self.link_upper > TOL_LINK))

    def separate(self, point: np.ndarray) -> Cuts:
        """Each separator's cuts in turn, the first `MAX_CUTS_PER_FAMILY`
        of each family, then the first row per support key."""
        cfg = self.config
        found = []
        if "triangle" in cfg.separators:
            found.append(separate_triangle(self.space, point, max_per_family=MAX_CUTS_PER_FAMILY))
        if "subtour_path" in cfg.separators:
            found.append(separate_subtour_path(self.space, point))
        if "partition" in cfg.separators and self.inst.m >= PARTITION_MIN_M:
            found.append(separate_partition(self.space, point))
        cuts = Cuts.concat(found) if found else Cuts.empty(self.space.ncols)
        if len(cuts) > MAX_CUTS_PER_FAMILY:  # else no family can pass the cap
            # each row's rank within its family, in order
            _, family = np.unique(cuts.family, return_inverse=True)
            by_family = family.argsort(kind="stable")
            rank = np.empty(len(cuts), dtype=np.intp)
            rank[by_family] = np.arange(len(cuts)) - np.searchsorted(family[by_family], family[by_family])
            cuts = cuts.take(np.flatnonzero(rank < MAX_CUTS_PER_FAMILY))
        return cuts.take(first_rows(cuts.keys))

    # -- LP solving ---------------------------------------------------------

    def solve_node_lp(self) -> LpSolution:
        """Solve the LP as it stands, with the time left.

        Some linking rows may be out of the LP, so the optimum may violate
        them; its value is then that of a relaxation, still a valid bound.
        """
        sol = solve_lp(self.lp, max(0.0, self.config.time_limit_s - self.elapsed()))
        self.lp_solves += 1
        self.simplex_iterations += sol.iterations
        return sol

    # -- heuristics ---------------------------------------------------------

    def run_root_heuristics(self) -> None:
        cfg = self.config
        if "greedy" in cfg.heuristics:
            self.heur_stats["greedy"]["runs"] += 1
            self.offer(greedy(self.inst), "greedy")
        if "sparsify" in cfg.heuristics:
            self.heur_stats["sparsify"]["runs"] += 1
            sub_cfg = sparsify_config(cfg, max(1e-3, cfg.time_limit_s - self.elapsed()))
            result = sparsify(self.inst, lambda reduced: solve(reduced, sub_cfg))
            if result is not None:
                self.offer(result, "sparsify")

    # -- node processing ----------------------------------------------------

    def push(self, bound: float, fixings: dict[int, float]) -> None:
        heapq.heappush(self.heap, (-bound, self.next_id, fixings))
        self.next_id += 1

    def process_node(self, fixings: dict[int, float], parent_bound: float, is_root: bool) -> None:
        cfg = self.config
        lo = self.model.lo.copy()
        hi = self.model.hi.copy()
        for col, val in fixings.items():
            lo[col] = hi[col] = val
        self.lp.set_bounds(lo, hi)

        rounds = cfg.cut_rounds_root if is_root else cfg.cut_rounds_node
        sol, bound, lp_values = self.cut_loop(parent_bound, rounds, is_root)
        if sol.status in ("time_limit", "error"):
            self.push(bound, fixings)  # with the last bound proven for it
            self.status = "lp_error" if sol.status == "error" else "time_limit"
            return
        if not sol.optimal:
            return
        if is_root:
            self.root_lp_values = lp_values
            self.root_dual_bound = bound
        if bound <= self.primal + EPSILON_GAP:
            return

        values = sol.values
        x = values[: self.space.num_x]
        frac_x = np.minimum(x, 1.0 - x)
        frac_x[[c for c in fixings if c < self.space.num_x]] = 0.0
        if frac_x.max() <= TOL_INTEGRALITY:
            try:
                clustering = point_to_clustering(self.space, values)
            except ConversionError:
                clustering = None
            if clustering is not None:
                self.offer(clustering, "node_integral")
                if bound <= self.primal + EPSILON_GAP:
                    return
            branch_col = self.pick_branch_column(values, fixings)
            if branch_col is None:
                return  # fully integral point; the bound check above already covers it
            for val in (0.0, 1.0):
                self.push(bound, {**fixings, branch_col: val})
        else:
            if "rounding" in cfg.heuristics:
                self.heur_stats["rounding"]["runs"] += 1
                rounded = rounding(self.inst, x)
                if rounded is not None:
                    self.offer(rounded, "rounding")
                    if bound <= self.primal + EPSILON_GAP:
                        return
            self.branch_on_vertex(self.branch_vertex(x, frac_x), fixings, bound)

    def branch_vertex(self, x: np.ndarray, frac_x: np.ndarray) -> int:
        """The vertex, among those with a fractional column not fixed, whose
        largest x is smallest: the first maximizer of 1 - max_s x[i,s]."""
        shape = (self.inst.n, self.inst.m)
        score = 1.0 - x.reshape(shape).max(axis=1)
        return int(np.argmax(np.where(frac_x.reshape(shape).max(axis=1) > TOL_INTEGRALITY, score, -np.inf)))

    def branch_on_vertex(self, i: int, fixings: dict[int, float], bound: float) -> None:
        """Push one child per cluster s that vertex i may still join; child s
        fixes x[i,s] to one and the rest of the row to zero, so the children
        partition the node's subtree."""
        row = [self.space.x(i, s) for s in range(self.inst.m)]
        for col in row:
            if fixings.get(col) != 0.0:
                self.push(bound, {**fixings, **{c: float(c == col) for c in row}})

    def cut_loop(self, parent_bound: float, rounds: int, is_root: bool) -> tuple[LpSolution, float, list[float]]:
        """Solve the LP once per round, then add that round's cuts and the
        linking rows its point violates in one batch; the root ages rows
        before it separates.

        Every round that separates counts toward `rounds`.  After the last
        one, rounds add only violated linking rows, so the loop ends at a
        point of the whole model plus its cuts unless the bound prunes first.
        If the time runs out at a point that violates linking rows, the
        solution comes back with status "time_limit": its value is a bound,
        but the point is not one of the whole model.  Returns the last
        solution, the last bound proven and the LP value of every round.
        """
        bound = parent_bound
        lp_values: list[float] = []
        separated = 0
        sol = self.solve_node_lp()
        while sol.optimal:
            bound = min(parent_bound, sol.objective_value + DUAL_PAD)
            lp_values.append(sol.objective_value)
            added = readded = 0
            if bound > self.primal + EPSILON_GAP:
                violated = self.violated_linking_rows(sol.values)
                if self.out_of_time():
                    if violated.size:
                        sol = replace(sol, status="time_limit")
                else:
                    cuts = Cuts.empty(self.space.ncols)
                    if separated < rounds:
                        separated += 1
                        if is_root:
                            self.age_rows(sol.values)
                        cuts = self.separate(sol.values)
                    added = self.add_rows(cuts, violated)
                    readded = violated.size
                    self.link_rows_readded += readded
            if is_root and log.isEnabledFor(logging.INFO):
                log.info(
                    "root round %d: LP %.10g, %d cuts added, %d linking rows re-added",
                    len(lp_values),
                    sol.objective_value * self.scale,
                    added,
                    readded,
                )
            if not (added or readded):
                break
            sol = self.solve_node_lp()
        return sol, bound, lp_values

    def pick_branch_column(self, values: np.ndarray, fixings: dict[int, float]) -> Optional[int]:
        """The most fractional y/z column not fixed, or None."""
        lo_col = self.space.num_x
        block = values[lo_col:]
        score = np.abs(block - 0.5)
        fractional = np.minimum(block, 1.0 - block) > TOL_INTEGRALITY
        score = np.where(fractional, score, np.inf)
        fixed = [c - lo_col for c in fixings if c >= lo_col]
        if fixed:
            score[fixed] = np.inf
        col = int(np.argmin(score))
        if not np.isfinite(score[col]):
            return None
        return lo_col + col

    # -- main loop ----------------------------------------------------------

    def run(self) -> None:
        cfg = self.config
        self.record("start")
        self.run_root_heuristics()
        self.push(math.inf, {})
        while self.heap and self.status == "optimal":
            if self.out_of_time():
                self.status = "time_limit"
                break
            if cfg.node_limit is not None and self.nodes_processed >= cfg.node_limit:
                self.status = "node_limit"
                break
            neg_bound, _, fixings = heapq.heappop(self.heap)
            parent_bound = -neg_bound
            if parent_bound <= self.primal + EPSILON_GAP:
                self.heap.clear()  # best-bound order: nothing better remains
                break
            is_root = self.nodes_processed == 0
            self.nodes_processed += 1
            self.process_node(fixings, parent_bound, is_root)
            new_dual = max(self.primal, -self.heap[0][0]) if self.heap else self.primal
            new_dual = min(self.dual, new_dual)
            if new_dual != self.dual:
                self.dual = new_dual
                self.record("dual")
            if self.nodes_processed % LOG_EVERY_NODES == 0 and log.isEnabledFor(logging.INFO):
                log.info(
                    "%d nodes: primal %.10g, dual %.10g, gap %.4g%%, %d open",
                    self.nodes_processed,
                    self.primal * self.scale,
                    self.dual * self.scale,
                    compute_gap(self.primal, self.dual),
                    len(self.heap),
                )
        if not self.heap and self.status == "optimal":
            self.dual = self.primal if self.incumbent is not None else self.dual
        else:
            self.dual = min(self.dual, max(self.primal, max((-b for b, _, _ in self.heap), default=self.primal)))
        self.record("final")

    def result(self) -> SolveResult:
        gap = 0.0 if (self.status == "optimal" and self.incumbent is not None) else compute_gap(self.primal, self.dual)
        return SolveResult(
            status=self.status,
            best_clustering=self.incumbent,
            primal_bound=self.primal * self.scale,
            dual_bound=self.dual * self.scale,
            gap_percent=gap,
            nodes_processed=self.nodes_processed,
            wall_time_s=self.elapsed(),
            bound_history=self.history,
            cut_counts=dict(sorted(self.cut_counts.items())),
            heuristic_stats=self.heur_stats,
            root_lp_values=[v * self.scale for v in self.root_lp_values],
            root_dual_bound=self.root_dual_bound * self.scale,
            lp_solves=self.lp_solves,
            simplex_iterations=self.simplex_iterations,
            lp_rows_deleted=self.lp_rows_deleted,
            link_rows_readded=self.link_rows_readded,
        )


def solve(inst: Instance, config: Optional[SolverConfig] = None) -> SolveResult:
    """Solve an instance by branch and cut; deterministic for a fixed config.

    Raises ParameterError for m < 3 (the compact formulation needs a proper
    cycle), as `SolverConfig` does for a setting out of range; limit
    terminations are normal statuses on the result.
    """
    cfg = config or SolverConfig()
    search = _Search(inst, cfg)
    search.run()
    return search.result()
