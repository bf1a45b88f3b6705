"""Command-line interface: solve instances, run heuristics standalone,
generate instances and suites, benchmark configuration matrices, and
self-check against the brute-force oracle.

Exit codes: 0 on success (including a stop at a time or node limit or at an
LP that HiGHS could not solve, reported in the status field as `time_limit`,
`node_limit` or `lp_error`, each with its incumbent and valid bounds), 2 for
unreadable or malformed instance files, 3 for infeasible parameters, 1 for
failed checks or unexpected errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from cyclecluster import bench as bench_mod
from cyclecluster.engine import (
    GAP_INFINITE,
    SolverConfig,
    SolveResult,
    dual_integral,
    primal_integral,
    solve,
)
from cyclecluster.formulation import build_cc, write_lp
from cyclecluster.generator import SuiteSpec, generate, write_metadata, write_suite
from cyclecluster.heuristics import exchange, greedy, rounding, sparsify
from cyclecluster.instance import (
    Clustering,
    Instance,
    InstanceError,
    ParameterError,
    load_instance,
    objective,
    save_instance,
)
from cyclecluster.lp import lp_relaxation, solve_lp
from cyclecluster.oracle import check_cut_validity, enumerate_optimal
from cyclecluster.separation import separate_partition, separate_subtour_path, separate_triangle

log = logging.getLogger("cyclecluster")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_FILE = 2
EXIT_BAD_PARAMS = 3


def _configure_logging() -> None:
    level = os.environ.get("CYCLECLUSTER_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def _load(path: str, m_override=None, alpha_override=None) -> Instance:
    inst = load_instance(path)
    if m_override is not None or alpha_override is not None:
        inst = Instance(
            n=inst.n,
            m=m_override if m_override is not None else inst.m,
            alpha=alpha_override if alpha_override is not None else inst.alpha,
            Q=inst.Q.copy(),
        )
    return inst


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(
        time_limit_s=args.time_limit,
        node_limit=args.node_limit,
        separators=bench_mod.parse_separator_spec(args.sepa),
        heuristics=bench_mod.parse_heuristic_spec(args.heur),
        rng_seed=args.seed,
        cut_rounds_root=args.cut_rounds_root,
        cut_rounds_node=args.cut_rounds_node,
    )


def _clusters_report(c: Clustering | None):
    if c is None:
        return None
    return [a + 1 for a in c.assignment]  # clusters are 1-based in reports


def _result_payload(path: str, inst: Instance, cfg: SolverConfig, res: SolveResult) -> dict:
    ref = res.primal_bound if math.isfinite(res.primal_bound) else 0.0
    return {
        "instance": str(path),
        "n": inst.n,
        "m": inst.m,
        "alpha": inst.alpha,
        "status": res.status,
        "primal_bound": res.primal_bound if math.isfinite(res.primal_bound) else None,
        "dual_bound": res.dual_bound if math.isfinite(res.dual_bound) else None,
        "gap_percent": "inf" if res.gap_percent >= GAP_INFINITE else res.gap_percent,
        "nodes_processed": res.nodes_processed,
        "lp_solves": res.lp_solves,
        "simplex_iterations": res.simplex_iterations,
        "lp_rows_deleted": res.lp_rows_deleted,
        "wall_time_s": res.wall_time_s,
        "best_clustering": _clusters_report(res.best_clustering),
        "cut_counts": res.cut_counts,
        "heuristic_stats": res.heuristic_stats,
        "root_dual_bound": res.root_dual_bound if math.isfinite(res.root_dual_bound) else None,
        "primal_integral": primal_integral(res.bound_history, res.wall_time_s, ref),
        "dual_integral": dual_integral(res.bound_history, res.wall_time_s, ref),
        "config": {
            "time_limit_s": cfg.time_limit_s,
            "node_limit": cfg.node_limit,
            "separators": list(cfg.separators),
            "heuristics": list(cfg.heuristics),
            "rng_seed": cfg.rng_seed,
        },
        "bound_history": [
            [ev.time_s, ev.nodes, None if not math.isfinite(ev.primal) else ev.primal,
             None if not math.isfinite(ev.dual) else ev.dual, ev.event]
            for ev in res.bound_history
        ],
    }


def _print_human_report(inst: Instance, res: SolveResult) -> None:
    print(f"status          {res.status}")
    primal = f"{res.primal_bound:.9g}" if math.isfinite(res.primal_bound) else "--"
    dual = f"{res.dual_bound:.9g}" if math.isfinite(res.dual_bound) else "--"
    gap = "inf" if res.gap_percent >= GAP_INFINITE else f"{res.gap_percent:.4f}%"
    print(f"primal bound    {primal}")
    print(f"dual bound      {dual}")
    print(f"gap             {gap}")
    print(f"nodes           {res.nodes_processed}")
    print(f"time            {res.wall_time_s:.2f} s")
    if res.cut_counts:
        cuts = " ".join(f"{fam}={cnt}" for fam, cnt in res.cut_counts.items())
        print(f"cuts            {cuts}")
    if res.best_clustering is not None:
        clusters = res.best_clustering.clusters()
        for t, members in enumerate(clusters):
            print(f"cluster {t + 1:<3}     {' '.join(str(v) for v in members)}")


def cmd_solve(args) -> int:
    try:
        inst = _load(args.instance, args.m_override, args.alpha_override)
    except FileNotFoundError:
        print(f"error: cannot read {args.instance}", file=sys.stderr)
        return EXIT_BAD_FILE
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    try:
        cfg = _config_from_args(args)
        if args.export_lp:
            with open(args.export_lp, "w", encoding="utf-8") as fh:
                write_lp(build_cc(inst), fh)
        res = solve(inst, cfg)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    if args.json or args.out:
        payload = json.dumps(_result_payload(args.instance, inst, cfg, res), indent=2)
        if args.out:
            Path(args.out).write_text(payload + "\n", encoding="utf-8")
        if args.json:
            print(payload)
    if not args.json:
        _print_human_report(inst, res)
    return EXIT_OK


def cmd_heuristic(args) -> int:
    try:
        inst = _load(args.instance, args.m_override, args.alpha_override)
    except FileNotFoundError:
        print(f"error: cannot read {args.instance}", file=sys.stderr)
        return EXIT_BAD_FILE
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE

    name = args.name
    result: Clustering | None
    if name == "greedy":
        result = greedy(inst)
    elif name == "exchange":
        result = exchange(inst, greedy(inst), rng_seed=args.seed)
    elif name == "rounding":
        sol = solve_lp(lp_relaxation(build_cc(inst)))
        x = sol.values[: inst.n * inst.m] if sol.optimal else None
        result = rounding(inst, x) if x is not None else None
    elif name == "sparsify":
        sub_cfg = SolverConfig(
            time_limit_s=args.time_limit,
            node_limit=1,
            rng_seed=args.seed,
            heuristics=("greedy", "rounding", "exchange"),
        )
        result = sparsify(inst, lambda reduced: solve(reduced, sub_cfg))
    else:  # pragma: no cover - argparse restricts choices
        return EXIT_FAIL
    if result is None:
        print(f"{name}: no feasible clustering found")
        return EXIT_OK
    print(f"{name}: value {objective(inst, result):.9g}")
    print("assignment " + " ".join(str(a + 1) for a in result.assignment))
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.suite:
        spec = SuiteSpec(alpha=args.alpha) if args.alpha is not None else SuiteSpec()
        paths = write_suite(args.suite, spec, rng_seed=args.seed)
        print(f"wrote {len(paths)} instances to {args.suite}")
        return EXIT_OK
    if args.n is None or args.m is None or args.out is None:
        print("error: single-instance mode needs --n, --m and -o", file=sys.stderr)
        return EXIT_BAD_PARAMS
    try:
        inst, planted = generate(
            n=args.n,
            m=args.m,
            alpha=args.alpha if args.alpha is not None else 1.0 / 1.001,
            forward_strength=args.forward,
            coherence_strength=args.coherence,
            noise=args.noise,
            rng_seed=args.seed,
        )
    except (ValueError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    save_instance(inst, args.out, fmt=args.fmt)
    meta = {
        "name": Path(args.out).stem,
        "n": args.n,
        "m": args.m,
        "seed_index": 0,
        "rng_seed": args.seed,
        "alpha": inst.alpha,
        "forward_strength": args.forward,
        "coherence_strength": args.coherence,
        "noise": args.noise,
        "planted": planted,
    }
    with open(Path(args.out).with_suffix(".meta"), "w", encoding="utf-8") as fh:
        write_metadata(meta, fh)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    suite_dir = Path(args.suite)
    if not suite_dir.is_dir():
        print(f"error: suite directory {suite_dir} does not exist", file=sys.stderr)
        return EXIT_BAD_FILE
    instances = bench_mod.load_suite(suite_dir)
    if not instances:
        print(f"error: no .cc instances under {suite_dir}", file=sys.stderr)
        return EXIT_BAD_FILE
    try:
        settings = [bench_mod.BenchSetting.parse(tok) for tok in args.settings.split(",") if tok.strip()]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    base_cfg = SolverConfig(time_limit_s=args.time_limit, node_limit=args.node_limit, rng_seed=args.seed)
    out_dir = Path(args.out) if args.out else None

    def progress(rec):
        log.info("%s %s: %s nodes=%d time=%.2fs", rec.setting, rec.instance, rec.status, rec.nodes, rec.time_s)

    records = bench_mod.run_bench(
        instances, settings, base_cfg, out_dir=out_dir, progress=progress, workers=args.workers
    )
    summaries = bench_mod.aggregate(records)
    if args.json:
        print(bench_mod.summaries_to_json(summaries))
    else:
        print(bench_mod.format_table(summaries))
    if out_dir is not None:
        (out_dir / "summary.json").write_text(bench_mod.summaries_to_json(summaries) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_check(args) -> int:
    """Oracle-vs-engine equivalence plus cut validity on random points."""
    rng = np.random.default_rng(args.seed)
    failures = 0
    grid = {"tiny": [(5, 3), (6, 3)], "small": [(6, 3), (7, 3), (7, 4), (8, 3)]}[args.grid]
    cfg = SolverConfig(time_limit_s=args.time_limit)
    for n, m in grid:
        inst, _ = generate(n, m, rng_seed=[args.seed, n, m])
        res = solve(inst, cfg)
        _, best = enumerate_optimal(inst)
        ok = res.optimal and abs(res.primal_bound - best) <= 1e-7
        failures += not ok
        print(f"engine-vs-oracle n={n} m={m}: {'ok' if ok else 'MISMATCH'} ({res.primal_bound:.9g} vs {best:.9g})")
    from cyclecluster.formulation import VariableSpace

    for n, m in grid:
        inst, _ = generate(n, m, rng_seed=[args.seed, n, m, 1])
        space = VariableSpace(inst)
        bad = 0
        for _ in range(20):
            x = rng.dirichlet(np.ones(m), size=n).ravel()
            tail = rng.uniform(0, 1, size=(len(space.pairs), 3))
            over = tail.sum(axis=1)
            tail *= np.where(over > 1.0, 1.0 / over, 1.0)[:, None]
            point = np.concatenate([x, tail.ravel()])
            cuts = (
                separate_triangle(space, point, 1e-4)
                + separate_subtour_path(space, point, 1e-4)
                + separate_partition(space, point, 1e-4)
            )
            for cut in cuts:
                if not check_cut_validity(inst, cut):
                    bad += 1
        failures += bad > 0
        print(f"cut-validity n={n} m={m}: {'ok' if bad == 0 else f'{bad} INVALID CUTS'}")
    print("check: " + ("all ok" if failures == 0 else f"{failures} failures"))
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cyclecluster", description="Cycle clustering branch-and-cut solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_opts(p):
        p.add_argument("--m-override", type=int, default=None, help="override the cluster count from the file")
        p.add_argument("--alpha-override", type=float, default=None, help="override alpha from the file")

    p_solve = sub.add_parser("solve", help="run branch and cut on an instance file")
    p_solve.add_argument("instance")
    add_instance_opts(p_solve)
    p_solve.add_argument("--time-limit", type=float, default=300.0, help="seconds (default 300)")
    p_solve.add_argument("--node-limit", type=int, default=None)
    p_solve.add_argument("--sepa", default="all", help="triangle,subtour,partition | none | all")
    p_solve.add_argument("--heur", default="all", help="greedy,rounding,exchange,sparsify | none | all")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--cut-rounds-root", type=int, default=10)
    p_solve.add_argument("--cut-rounds-node", type=int, default=2)
    p_solve.add_argument("--json", action="store_true", help="print a machine-readable result")
    p_solve.add_argument("--out", default=None, help="also write the JSON result to this path")
    p_solve.add_argument("--export-lp", default=None, help="write the root model, without the vertex-0 pin, in LP text format")
    p_solve.set_defaults(func=cmd_solve)

    p_heur = sub.add_parser("heuristic", help="run a single primal heuristic")
    p_heur.add_argument("name", choices=["greedy", "exchange", "rounding", "sparsify"])
    p_heur.add_argument("instance")
    add_instance_opts(p_heur)
    p_heur.add_argument("--seed", type=int, default=0)
    p_heur.add_argument("--time-limit", type=float, default=60.0, help="budget for the sparsify sub-solve")
    p_heur.set_defaults(func=cmd_heuristic)

    p_gen = sub.add_parser("generate", help="generate an instance or the benchmark suite")
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--alpha", type=float, default=None)
    p_gen.add_argument("--forward", type=float, default=1.0)
    p_gen.add_argument("--coherence", type=float, default=1.0)
    p_gen.add_argument("--noise", type=float, default=0.25)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--out", default=None)
    p_gen.add_argument("--fmt", choices=["dense", "sparse"], default="dense")
    p_gen.add_argument("--suite", default=None, help="write the default 48-instance suite to this directory")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="run a configuration matrix over a suite directory")
    p_bench.add_argument("suite")
    p_bench.add_argument("--settings", default=",".join(bench_mod.DEFAULT_SETTINGS), help="comma list of SEPA/HEUR tokens")
    p_bench.add_argument("--time-limit", type=float, default=300.0)
    p_bench.add_argument("--node-limit", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--workers", type=int, default=1, help="process pool size for dispatching solves")
    p_bench.add_argument("--json", action="store_true")
    p_bench.add_argument("--out", default=None, help="directory for per-run logs and results")
    p_bench.set_defaults(func=cmd_bench)

    p_check = sub.add_parser("check", help="self-check against the brute-force oracle")
    p_check.add_argument("--grid", choices=["tiny", "small"], default="small")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--time-limit", type=float, default=120.0)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return EXIT_OK


def entry() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
