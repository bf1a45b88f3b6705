"""Benchmark harness: run a configuration matrix over an instance suite and
aggregate per-setting statistics.

Aggregates follow MIP benchmarking conventions: shifted geometric means with
a shift of 10 seconds for solve time, 100 for node counts and 1000 for the
primal and dual integrals, plus the arithmetic mean of the finite gaps.  The
integrals are normalized against the best primal value any setting achieved
on the instance.  A run's record is its solve's JSON report
(`SolveResult.report`) plus its setting.  With an output directory each run
writes that report and an event log (one line per bound event), and
aggregation rebuilds its inputs from the reports alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from cyclecluster.engine import BoundEvent, SolverConfig, dual_integral, json_value, primal_integral, solve
from cyclecluster.engine import HEURISTIC_NAMES, SEPARATOR_ORDER
from cyclecluster.instance import Instance, load_instance

TIME_SHIFT = 10.0
NODE_SHIFT = 100.0
INTEGRAL_SHIFT = 1000.0

# every name a separator spec may use, and the separator each one means
SEPA_ALIASES = {"triangle": "triangle", "subtour": "subtour_path", "subtour_path": "subtour_path", "partition": "partition"}


def shifted_geomean(values: Sequence[float], shift: float) -> float:
    """exp(mean(ln(v + shift))) - shift; equals the plain value on constants."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return float("nan")
    if np.any(arr + shift <= 0):
        raise ValueError("shifted geometric mean needs v + shift > 0")
    return float(np.exp(np.mean(np.log(arr + shift))) - shift)


def _parse_spec(spec: str, kind: str, aliases: dict, every: tuple) -> tuple:
    """The names a spec selects, each once, in spec order: none, all
    (`every`), or spec names, the keys of `aliases`, joined by ',' or '+'."""
    spec = spec.strip().lower()
    if spec in ("none", ""):
        return ()
    if spec == "all":
        return every
    names = []
    for tok in spec.replace("+", ",").split(","):
        tok = tok.strip()
        if tok not in aliases:
            raise ValueError(f"unknown {kind} {tok!r} (use {', '.join(aliases)}, none or all)")
        names.append(aliases[tok])
    return tuple(dict.fromkeys(names))


def parse_separator_spec(spec: str) -> tuple:
    return _parse_spec(spec, "separator", SEPA_ALIASES, SEPARATOR_ORDER)


def parse_heuristic_spec(spec: str) -> tuple:
    return _parse_spec(spec, "heuristic", dict(zip(HEURISTIC_NAMES, HEURISTIC_NAMES)), HEURISTIC_NAMES)


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


def bound_events(report: dict) -> list[BoundEvent]:
    """A report's bound history as events, with missing bounds back at -inf / inf."""
    return [
        BoundEvent(t, nodes, -math.inf if primal is None else primal, math.inf if dual is None else dual, kind)
        for t, nodes, primal, dual, kind in report["bound_history"]
    ]


def _run_one(job: tuple[str, str, Instance, SolverConfig]) -> dict:
    name, setting, inst, cfg = job
    return {"setting": setting, **solve(inst, cfg).report(name, inst, cfg)}


def run_bench(
    instances: Sequence[tuple[str, Instance]],
    settings: Sequence[BenchSetting],
    base_config: SolverConfig,
    out_dir: Optional[Path] = None,
    progress=None,
    workers: int = 1,
) -> list[dict]:
    """Solve every instance under every setting; returns one report per run:
    the solve's `SolveResult.report` plus its `setting`.

    With workers > 1, solves are dispatched to a process pool; reports come
    back in job order and aggregation is order-independent anyway.  With an
    output directory, each report goes to `<setting>/<instance>.json`, next
    to the run's event log.
    """
    jobs = []
    for setting in settings:
        cfg = replace(base_config, separators=setting.separators, heuristics=setting.heuristics)
        for name, inst in instances:
            jobs.append((name, setting.name, inst, cfg))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_one, jobs))
    else:
        reports = []
        for job in jobs:
            reports.append(_run_one(job))
            if progress is not None:
                progress(reports[-1])
    if out_dir is not None:
        for rep in reports:
            run_dir = Path(out_dir) / rep["setting"].replace("/", "_")
            run_dir.mkdir(parents=True, exist_ok=True)
            write_event_log(run_dir / f"{rep['instance']}.log", bound_events(rep))
            (run_dir / f"{rep['instance']}.json").write_text(json.dumps(rep, indent=2) + "\n", encoding="utf-8")
    if workers > 1 and progress is not None:
        for rep in reports:
            progress(rep)
    return reports


def load_records(out_dir: Path) -> list[dict]:
    """The run reports `run_bench` wrote under `out_dir`."""
    return [json.loads(path.read_text()) for path in sorted(Path(out_dir).glob("*/*.json"))]


@dataclass
class SettingSummary:
    setting: str
    runs: int
    solved: int
    sgm_time_s: float
    sgm_nodes: float
    sgm_primal_integral: float
    sgm_dual_integral: float
    mean_gap_percent: float  # arithmetic mean over finite gaps
    infinite_gaps: int


def aggregate(reports: Sequence[dict]) -> list[SettingSummary]:
    """Per-setting summaries of run reports; instance references are
    cross-setting bests."""
    reference: dict[str, float] = {}
    for rep in reports:
        if rep["primal_bound"] is not None:
            reference[rep["instance"]] = max(reference.get(rep["instance"], -math.inf), rep["primal_bound"])
    settings = list(dict.fromkeys(rep["setting"] for rep in reports))
    out = []
    for setting in settings:
        rows = sorted((r for r in reports if r["setting"] == setting), key=lambda r: r["instance"])
        times = [r["wall_time_s"] for r in rows]
        p_ints, d_ints = [], []
        for r in rows:
            ref = reference.get(r["instance"])
            if ref is None:
                p_ints.append(r["wall_time_s"])
                d_ints.append(r["wall_time_s"])
                continue
            history = bound_events(r)
            p_ints.append(primal_integral(history, r["wall_time_s"], ref))
            d_ints.append(dual_integral(history, r["wall_time_s"], ref))
        finite_gaps = [r["gap_percent"] for r in rows if r["gap_percent"] != "inf"]
        out.append(
            SettingSummary(
                setting=setting,
                runs=len(rows),
                solved=sum(r["status"] == "optimal" for r in rows),
                sgm_time_s=shifted_geomean(times, TIME_SHIFT),
                sgm_nodes=shifted_geomean([r["nodes_processed"] for r in rows], NODE_SHIFT),
                sgm_primal_integral=shifted_geomean(p_ints, INTEGRAL_SHIFT),
                sgm_dual_integral=shifted_geomean(d_ints, INTEGRAL_SHIFT),
                mean_gap_percent=float(np.mean(finite_gaps)) if finite_gaps else float("nan"),
                infinite_gaps=len(rows) - len(finite_gaps),
            )
        )
    return out


def format_table(summaries: Sequence[SettingSummary]) -> str:
    header = f"{'setting':<22} {'solved':>6} {'time[s]':>9} {'nodes':>9} {'gap[%]':>8} {'primal int.':>12} {'dual int.':>12}"
    lines = [header, "-" * len(header)]
    for s in summaries:
        gap = f"{s.mean_gap_percent:.1f}" if math.isfinite(s.mean_gap_percent) else "--"
        if s.infinite_gaps:
            gap += f" (+{s.infinite_gaps} inf)"
        lines.append(
            f"{s.setting:<22} {s.solved:>3}/{s.runs:<3} {s.sgm_time_s:>9.1f} {s.sgm_nodes:>9.1f} "
            f"{gap:>8} {s.sgm_primal_integral:>12.1f} {s.sgm_dual_integral:>12.1f}"
        )
    return "\n".join(lines)


def summaries_to_json(summaries: Sequence[SettingSummary]) -> str:
    return json.dumps([json_value(asdict(s)) for s in summaries], indent=2)


def load_suite(directory: Path) -> list[tuple[str, Instance]]:
    paths = sorted(Path(directory).glob("*.cc"))
    return [(p.stem, load_instance(p)) for p in paths]
