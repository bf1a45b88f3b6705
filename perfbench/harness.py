"""Measurement loop, output checks and metrics of the benchmark; `run.py`
is its launcher."""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import spans
from cyclecluster.bench import NODE_SHIFT, TIME_SHIFT, shifted_geomean
from workloads import WORKLOADS, Case, Outcome

SETUP_REPEATS = 3


@dataclass
class Op:
    key: tuple  # (pass, instance index); equal keys mean equal inputs
    op_id: int
    seconds: float
    label: str
    planted_value: float
    outcome: Optional[Outcome]  # None when the call raised
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome is not None and not self.outcome.problems


def measure(workload, seed: int, seconds: float, optima: dict, passes: int = 0, tracer=None) -> list:
    """Run whole passes over the workload's instances, each pass with its
    own relabeling: `passes` of them, or else as many as fit in `seconds`
    judged by the first, and at least one."""
    ops: list = []
    start = time.perf_counter()
    done = 0
    while done == 0 or done < passes:
        for i in range(len(workload.instances)):
            case = workload.case(seed, done, i)
            ops.append(run_op(workload, case, (done, i), optima, tracer, len(ops)))
        done += 1
        if not passes:
            passes = max(1, round(seconds / (time.perf_counter() - start)))
    return ops


def run_op(workload, case: Case, key: tuple, optima: dict, tracer=None, op_id: int = 0) -> Op:
    """Time one operation, then check its output outside the timing.  Only
    the outcome is kept, so memory holds one pass of instances at a time."""
    out, error = None, ""
    with tracer.operation(op_id) if tracer else nullcontext():
        t = time.perf_counter()
        try:
            out = workload.execute(case.inst)
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc()
        seconds = time.perf_counter() - t
    outcome = None if out is None else workload.inspect(case, out, optima)
    return Op(key, op_id, seconds, case.label, case.planted_value, outcome, error)


def mismatches(ops: list, lp: Optional[dict] = None) -> list:
    """Ops whose counters differ from the first op with the same input."""
    first: dict = {}
    out = []
    for op in ops:
        if op.outcome is None:
            continue
        sig = op.outcome.signature + ((lp.get(op.op_id),) if lp is not None else ())
        if first.setdefault(op.key, sig) != sig:
            out.append(op)
    return out


def replay(workload, seed: int, ops: list, optima: dict, tracer=None) -> list:
    """Run the slowest successful operation once more: the one with the most
    solver work to repeat.  Returns it, or nothing when no operation succeeded."""
    done = [op for op in ops if op.outcome is not None]
    if not done:
        return []
    key = max(done, key=lambda op: op.seconds).key
    return [run_op(workload, workload.case(seed, *key), key, optima, tracer, len(ops))]


def e2e_metrics(ops: list, setup_s: float) -> dict:
    good = [op for op in ops if op.outcome is not None]
    if not good:
        raise RuntimeError("no operation succeeded")
    times = [op.seconds for op in good]
    return {
        "setup_s": setup_s,
        "sgm_time_s": shifted_geomean(times, TIME_SHIFT),
        "value_ratio": statistics.fmean(op.outcome.value / op.planted_value for op in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(workload, ops: list, tracer) -> dict:
    good = [op for op in ops if op.outcome is not None]
    wins: dict = defaultdict(int)
    for op in good:
        for h, w in op.outcome.wins.items():
            wins[h] += w
    metrics = spans.layer_metrics(tracer.spans, {op.op_id for op in good}, wins)
    solves = workload.config is not None
    metrics["engine.sgm_nodes"] = shifted_geomean([op.outcome.nodes for op in good], NODE_SHIFT) if solves else 0.0
    metrics["engine.gap_pct"] = statistics.fmean(op.outcome.gap_percent for op in good) if solves else 0.0
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, spec: dict, import_s: float, trace_dir: Path) -> dict:
    """One benchmark run; returns the result object the launcher prints."""
    workload = WORKLOADS[workload_name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        for i in range(len(workload.instances)):
            workload.case(seed, 0, i)
        workload.warm()
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    optima: dict = {}
    if not trace:
        ops = measure(workload, seed, seconds, optima)
        run_ops = ops + replay(workload, seed, ops, optima)
        differ = mismatches(run_ops)
        metrics = e2e_metrics(ops, setup_s)
        kind = "end_to_end"
    else:
        plain = measure(workload, seed, seconds / 2, optima)
        with spans.Tracer() as tracer:
            ops = measure(workload, seed, 0, optima, passes=plain[-1].key[0] + 1, tracer=tracer)
            again = replay(workload, seed, ops, optima, tracer)
        tracer.write(trace_dir / f"{workload.name}-seed{seed}.jsonl")
        run_ops = plain + ops + again
        differ = mismatches(run_ops) + mismatches(ops + again, spans.lp_counts(tracer.spans))
        base, traced = e2e_metrics(plain, setup_s), e2e_metrics(ops, setup_s)
        metrics = per_layer_metrics(workload, ops, tracer)
        metrics["tracing.overhead_pct"] = 100.0 * (traced["sgm_time_s"] / base["sgm_time_s"] - 1.0)
        kind = "per_layer"

    problems = [f"{op.label}: raised\n{op.error}" for op in run_ops if op.outcome is None]
    problems += [f"{op.label}: {p}" for op in run_ops if op.outcome is not None for p in op.outcome.problems]
    problems += [f"{op.label}: counters differ from an earlier run of the same input" for op in differ]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    failed = {id(op) for op in run_ops if not op.ok} | {id(op) for op in differ}
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} differ from BENCHMARK.json")
    return {
        "correct": not problems,
        "attempted": len(run_ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
