"""Spans around the calls into the solver's layers, recorded from outside.

The tracer replaces the names `cyclecluster.engine` imports from the other
modules, `engine.solve` itself (sparsify nests a solve through that name)
and `cyclecluster.lp.linprog` with timing wrappers, and puts every original
back when it exits.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from cyclecluster import engine, lp

ENGINE_NAMES = (
    "build_cc",
    "lp_relaxation",
    "solve_lp",
    "separate_triangle",
    "separate_subtour_path",
    "separate_partition",
    "greedy",
    "exchange",
    "rounding",
    "sparsify",
    "objective",
    "point_to_clustering",
    "solve",
)
TARGETS = tuple((engine, name) for name in ENGINE_NAMES) + ((lp, "linprog"),)


def _info(name: str, args: tuple, out):
    """The count a span keeps from its call, read from arguments or result."""
    if name == "solve_lp":
        return args[0].rows.shape[0]
    if name == "linprog":
        return int(out.nit)
    if name.startswith("separate_"):
        return len(out)
    if name == "build_cc":
        return (out.nrows, out.ncols)
    if name == "solve":
        return (
            out.nodes_processed,
            sum(out.cut_counts.values()),
            {h: s["successes"] for h, s in out.heuristic_stats.items()},
        )
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info", "error")

    def __init__(self, name: str, start: float, parent: int | None, op: int | None):
        self.name, self.start, self.end, self.parent, self.op = name, start, start, parent, op
        self.info = None
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager: wraps the layer entry points on enter, restores them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.t0 = time.perf_counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for module, name in TARGETS:
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        if any(getattr(module, name) is not original for module, name, original in self._saved):
            raise RuntimeError("a traced name was not restored")
        self._saved.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter() - self.t0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter() - self.t0
        self._stack.pop()
        return span

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self._close(index).error = True
                raise
            self._close(index).info = _info(name, args, out)
            return out

        return wrapper

    @contextmanager
    def operation(self, op: int):
        """One benchmark operation: the root span of everything it calls."""
        self._op = op
        index = self._open("op")
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}) + "\n")


def lp_counts(spans: list[Span]) -> dict:
    """op -> (LP solves, simplex iterations), the LP counters a repeat must match."""
    counts: dict = {}
    for s in spans:
        if s.name in ("solve_lp", "linprog") and s.op is not None:
            solves, iters = counts.get(s.op, (0, 0))
            if s.name == "solve_lp":
                solves += 1
            elif s.info is not None:
                iters += s.info
            counts[s.op] = (solves, iters)
    return counts


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], ops: set, wins: dict) -> dict:
    """Per-layer figures over the spans of `ops`, as means per operation.

    A span's self time is its duration minus that of its direct children.
    Counters come from every solve in an operation, sparsify's nested root
    solve included; `wins` adds incumbents found outside any solve.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    total, own, calls, info = defaultdict(float), defaultdict(float), defaultdict(int), defaultdict(list)
    errors = 0
    for i, s in enumerate(spans):
        if s.op not in ops:
            continue
        total[s.name] += s.duration
        own[s.name] += s.duration - child[i]
        calls[s.name] += 1
        errors += s.name == "solve_lp" and s.error
        if s.info is not None:
            info[s.name].append(s.info)
    n = len(ops)
    nodes = sum(i[0] for i in info["solve"])
    added = sum(i[1] for i in info["solve"])
    found = sum(sum(info[f"separate_{f}"]) for f in engine.SEPARATOR_ORDER)
    builds = info["build_cc"]
    m = {
        "lp.s": total["solve_lp"] / n,
        "lp.share": _ratio(total["solve_lp"], total["op"]),
        "lp.solves": calls["solve_lp"] / n,
        "lp.simplex_iters": sum(info["linprog"]) / n,
        "lp.rows_per_solve": _ratio(sum(info["solve_lp"]), calls["solve_lp"]),
        "lp.ms_per_solve": 1000.0 * _ratio(total["solve_lp"], calls["solve_lp"]),
        "lp.solves_per_node": _ratio(calls["solve_lp"], nodes),
        "lp.errors": errors / n,
    }
    for f in engine.SEPARATOR_ORDER:
        name = f"separate_{f}"
        m[f"separation.{f}.s"] = total[name] / n
        m[f"separation.{f}.calls"] = calls[name] / n
        m[f"separation.{f}.cuts_found"] = sum(info[name]) / n
    m["separation.cuts_added"] = added / n
    m["separation.added_ratio"] = _ratio(added, found)
    for h in engine.HEURISTIC_NAMES:
        m[f"heuristics.{h}.s"] = total[h] / n
        m[f"heuristics.{h}.calls"] = calls[h] / n
        m[f"heuristics.{h}.wins"] = (sum(i[2].get(h, 0) for i in info["solve"]) + wins.get(h, 0)) / n
    m["formulation.build_s"] = (total["build_cc"] + total["lp_relaxation"]) / n
    m["formulation.convert_s"] = total["point_to_clustering"] / n
    m["formulation.rows"] = _ratio(sum(b[0] for b in builds), len(builds))
    m["formulation.cols"] = _ratio(sum(b[1] for b in builds), len(builds))
    m["engine.self_s"] = own["solve"] / n
    m["engine.nodes"] = nodes / n
    m["instance.objective.calls"] = calls["objective"] / n
    m["instance.objective.s"] = total["objective"] / n
    return m
