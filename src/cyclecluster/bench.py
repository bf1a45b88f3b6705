"""Benchmark harness: run a configuration matrix over an instance suite and
aggregate per-setting statistics.

Aggregates follow MIP benchmarking conventions: shifted geometric means with
a shift of 10 seconds for solve time, 100 for node counts and 1000 for the
primal and dual integrals, plus the arithmetic mean of the finite gaps.  The
integrals are normalized against the best primal value any setting achieved
on the instance.  Each run writes a machine-readable event log (one line per
bound event) and a JSON result; aggregation can rebuild its inputs from these
files alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from cyclecluster.engine import BoundEvent, GAP_INFINITE, SolverConfig, SolveResult, dual_integral, primal_integral, solve
from cyclecluster.engine import HEURISTIC_NAMES, SEPARATOR_ORDER
from cyclecluster.instance import Instance, load_instance

TIME_SHIFT = 10.0
NODE_SHIFT = 100.0
INTEGRAL_SHIFT = 1000.0

SEPA_ALIASES = {"subtour": "subtour_path", "subtour_path": "subtour_path", "triangle": "triangle", "partition": "partition"}


def shifted_geomean(values: Sequence[float], shift: float) -> float:
    """exp(mean(ln(v + shift))) - shift; equals the plain value on constants."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return float("nan")
    if np.any(arr + shift <= 0):
        raise ValueError("shifted geometric mean needs v + shift > 0")
    return float(np.exp(np.mean(np.log(arr + shift))) - shift)


def parse_separator_spec(spec: str) -> tuple:
    spec = spec.strip().lower()
    if spec in ("none", ""):
        return ()
    if spec == "all":
        return SEPARATOR_ORDER
    names = []
    for tok in spec.replace("+", ",").split(","):
        tok = tok.strip()
        if tok not in SEPA_ALIASES:
            raise ValueError(f"unknown separator {tok!r} (use triangle, subtour, partition, none, all)")
        names.append(SEPA_ALIASES[tok])
    return tuple(dict.fromkeys(names))


def parse_heuristic_spec(spec: str) -> tuple:
    spec = spec.strip().lower()
    if spec in ("none", ""):
        return ()
    if spec == "all":
        return HEURISTIC_NAMES
    names = []
    for tok in spec.replace("+", ",").split(","):
        tok = tok.strip()
        if tok not in HEURISTIC_NAMES:
            raise ValueError(f"unknown heuristic {tok!r} (use greedy, sparsify, rounding, exchange, none, all)")
        names.append(tok)
    return tuple(dict.fromkeys(names))


@dataclass(frozen=True)
class BenchSetting:
    name: str
    separators: tuple
    heuristics: tuple

    @classmethod
    def parse(cls, token: str) -> "BenchSetting":
        """Parse 'SEPA/HEUR', e.g. 'subtour/all' or 'none/greedy+exchange'."""
        sepa, _, heur = token.partition("/")
        if not _:
            raise ValueError(f"setting {token!r} must look like SEPA/HEUR")
        return cls(name=token, separators=parse_separator_spec(sepa), heuristics=parse_heuristic_spec(heur))


DEFAULT_SETTINGS = ("none/none", "none/all", "subtour/all", "all/all")


@dataclass
class RunRecord:
    instance: str
    setting: str
    status: str
    primal: float
    dual: float
    gap_percent: float
    nodes: int
    time_s: float
    cut_counts: dict = field(default_factory=dict)
    history: list = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.status == "optimal"


def record_from_result(name: str, setting: str, res: SolveResult) -> RunRecord:
    return RunRecord(
        instance=name,
        setting=setting,
        status=res.status,
        primal=res.primal_bound,
        dual=res.dual_bound,
        gap_percent=res.gap_percent,
        nodes=res.nodes_processed,
        time_s=res.wall_time_s,
        cut_counts=dict(res.cut_counts),
        history=list(res.bound_history),
    )


def write_event_log(path: Path, history: Sequence[BoundEvent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(ev.log_line() for ev in history)


def read_event_log(path: Path) -> list[BoundEvent]:
    events = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        t, nodes, primal, dual, kind = line.split()
        events.append(BoundEvent(float(t), int(nodes), float(primal), float(dual), kind))
    return events


def _json_num(x: float):
    if x is None or not math.isfinite(x):
        return None
    return x


def write_run_json(path: Path, rec: RunRecord) -> None:
    payload = {
        "instance": rec.instance,
        "setting": rec.setting,
        "status": rec.status,
        "primal_bound": _json_num(rec.primal),
        "dual_bound": _json_num(rec.dual),
        "gap_percent": "inf" if rec.gap_percent >= GAP_INFINITE else rec.gap_percent,
        "nodes_processed": rec.nodes,
        "wall_time_s": rec.time_s,
        "cut_counts": rec.cut_counts,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_run_json(path: Path) -> RunRecord:
    payload = json.loads(Path(path).read_text())
    gap = payload["gap_percent"]
    return RunRecord(
        instance=payload["instance"],
        setting=payload["setting"],
        status=payload["status"],
        primal=-math.inf if payload["primal_bound"] is None else payload["primal_bound"],
        dual=math.inf if payload["dual_bound"] is None else payload["dual_bound"],
        gap_percent=GAP_INFINITE if gap == "inf" else gap,
        nodes=payload["nodes_processed"],
        time_s=payload["wall_time_s"],
        cut_counts=payload.get("cut_counts", {}),
        history=[],
    )


def _run_one(job: tuple[str, str, Instance, SolverConfig]) -> RunRecord:
    name, setting_name, inst, cfg = job
    return record_from_result(name, setting_name, solve(inst, cfg))


def run_bench(
    instances: Sequence[tuple[str, Instance]],
    settings: Sequence[BenchSetting],
    base_config: SolverConfig,
    out_dir: Optional[Path] = None,
    progress=None,
    workers: int = 1,
) -> list[RunRecord]:
    """Solve every instance under every setting; returns one record per run.

    With workers > 1, solves are dispatched to a process pool; records come
    back in job order and aggregation is order-independent anyway.
    """
    jobs = []
    for setting in settings:
        cfg = replace(base_config, separators=setting.separators, heuristics=setting.heuristics)
        for name, inst in instances:
            jobs.append((name, setting.name, inst, cfg))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one, jobs))
    else:
        records = []
        for job in jobs:
            records.append(_run_one(job))
            if progress is not None:
                progress(records[-1])
    if out_dir is not None:
        for rec in records:
            run_dir = Path(out_dir) / rec.setting.replace("/", "_")
            run_dir.mkdir(parents=True, exist_ok=True)
            write_event_log(run_dir / f"{rec.instance}.log", rec.history)
            write_run_json(run_dir / f"{rec.instance}.json", rec)
    if workers > 1 and progress is not None:
        for rec in records:
            progress(rec)
    return records


def load_records(out_dir: Path) -> list[RunRecord]:
    """Rebuild run records from the JSON results and event logs on disk."""
    records = []
    for json_path in sorted(Path(out_dir).glob("*/*.json")):
        rec = read_run_json(json_path)
        log_path = json_path.with_suffix(".log")
        if log_path.exists():
            rec.history = read_event_log(log_path)
        records.append(rec)
    return records


@dataclass
class SettingSummary:
    setting: str
    runs: int
    solved: int
    sgm_time: float
    sgm_nodes: float
    sgm_primal_integral: float
    sgm_dual_integral: float
    mean_gap: float  # arithmetic mean over finite gaps
    infinite_gaps: int


def aggregate(records: Sequence[RunRecord]) -> list[SettingSummary]:
    """Per-setting summaries; instance references are cross-setting bests."""
    reference: dict[str, float] = {}
    for rec in records:
        if math.isfinite(rec.primal):
            reference[rec.instance] = max(reference.get(rec.instance, -math.inf), rec.primal)
    settings = list(dict.fromkeys(rec.setting for rec in records))
    out = []
    for setting in settings:
        rows = sorted((r for r in records if r.setting == setting), key=lambda r: r.instance)
        times = [r.time_s for r in rows]
        nodes = [r.nodes for r in rows]
        p_ints, d_ints = [], []
        for r in rows:
            ref = reference.get(r.instance)
            if ref is None or not math.isfinite(ref):
                p_ints.append(r.time_s)
                d_ints.append(r.time_s)
                continue
            p_ints.append(primal_integral(r.history, r.time_s, ref))
            d_ints.append(dual_integral(r.history, r.time_s, ref))
        finite_gaps = [r.gap_percent for r in rows if r.gap_percent < GAP_INFINITE]
        out.append(
            SettingSummary(
                setting=setting,
                runs=len(rows),
                solved=sum(r.solved for r in rows),
                sgm_time=shifted_geomean(times, TIME_SHIFT),
                sgm_nodes=shifted_geomean(nodes, NODE_SHIFT),
                sgm_primal_integral=shifted_geomean(p_ints, INTEGRAL_SHIFT),
                sgm_dual_integral=shifted_geomean(d_ints, INTEGRAL_SHIFT),
                mean_gap=float(np.mean(finite_gaps)) if finite_gaps else float("nan"),
                infinite_gaps=sum(1 for r in rows if r.gap_percent >= GAP_INFINITE),
            )
        )
    return out


def format_table(summaries: Sequence[SettingSummary]) -> str:
    header = f"{'setting':<22} {'solved':>6} {'time[s]':>9} {'nodes':>9} {'gap[%]':>8} {'primal int.':>12} {'dual int.':>12}"
    lines = [header, "-" * len(header)]
    for s in summaries:
        gap = f"{s.mean_gap:.1f}" if math.isfinite(s.mean_gap) else "--"
        if s.infinite_gaps:
            gap += f" (+{s.infinite_gaps} inf)"
        lines.append(
            f"{s.setting:<22} {s.solved:>3}/{s.runs:<3} {s.sgm_time:>9.1f} {s.sgm_nodes:>9.1f} "
            f"{gap:>8} {s.sgm_primal_integral:>12.1f} {s.sgm_dual_integral:>12.1f}"
        )
    return "\n".join(lines)


def summaries_to_json(summaries: Sequence[SettingSummary]) -> str:
    def clean(x):
        return None if (isinstance(x, float) and not math.isfinite(x)) else x

    return json.dumps(
        [
            {
                "setting": s.setting,
                "runs": s.runs,
                "solved": s.solved,
                "sgm_time_s": clean(s.sgm_time),
                "sgm_nodes": clean(s.sgm_nodes),
                "sgm_primal_integral": clean(s.sgm_primal_integral),
                "sgm_dual_integral": clean(s.sgm_dual_integral),
                "mean_gap_percent": clean(s.mean_gap),
                "infinite_gaps": s.infinite_gaps,
            }
            for s in summaries
        ],
        indent=2,
    )


def load_suite(directory: Path) -> list[tuple[str, Instance]]:
    paths = sorted(Path(directory).glob("*.cc"))
    return [(p.stem, load_instance(p)) for p in paths]
