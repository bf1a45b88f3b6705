"""Command-line interface: solve instances, run heuristics standalone,
generate instances and suites, benchmark configuration matrices, and
self-check against the brute-force oracle.

Exit codes: 0 on success (including a stop at a time or node limit or at an
LP that HiGHS could not solve, reported in the status field as `time_limit`,
`node_limit` or `lp_error`, each with its incumbent and valid bounds), 2 for
a file that cannot be read or written and for malformed instance files, 3
for infeasible parameters, 1 for failed checks or unexpected errors.
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
from cyclecluster.engine import GAP_INFINITE, HEURISTIC_NAMES, SolverConfig, SolveResult, solve, sparsify_config
from cyclecluster.formulation import build_cc, write_lp
from cyclecluster.generator import DEFAULT_ALPHA, SuiteSpec, generate, write_metadata, write_suite
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
from cyclecluster.oracle import enumerate_optimal, max_integral_violation
from cyclecluster.separation import Cuts, separate_partition, separate_subtour_path, separate_triangle

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_FILE = 2
EXIT_BAD_PARAMS = 3


def _configure_logging() -> None:
    level = os.environ.get("CYCLECLUSTER_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def _read(path) -> Instance | int:
    """The instance in the file at `path`, or the exit code for a file that
    cannot be read, is malformed or declares parameters that cannot hold,
    after one error line that names the file."""
    try:
        return load_instance(path)
    except (OSError, UnicodeDecodeError):  # missing, a directory, unreadable or not UTF-8
        print(f"error: cannot read {path}", file=sys.stderr)
        return EXIT_BAD_FILE
    except InstanceError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS if isinstance(exc, ParameterError) else EXIT_BAD_FILE


def _cannot_write(path) -> int:
    """The exit code for an output path that cannot be written, after one error line naming it."""
    print(f"error: cannot write {path}", file=sys.stderr)
    return EXIT_BAD_FILE


def _load(args) -> Instance | int:
    """The instance `args` names, with its overrides, or the exit code of
    `_read`; overrides that cannot hold raise `ParameterError`."""
    inst = _read(args.instance)
    if isinstance(inst, int) or (args.m_override is None and args.alpha_override is None):
        return inst
    return Instance(
        n=inst.n,
        m=args.m_override if args.m_override is not None else inst.m,
        alpha=args.alpha_override if args.alpha_override is not None else inst.alpha,
        Q=inst.Q.copy(),
    )


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
    inst = _load(args)
    if isinstance(inst, int):
        return inst
    cfg = _config_from_args(args)
    try:  # every output is opened before the solve
        lp_file = open(args.export_lp, "w", encoding="utf-8") if args.export_lp else None
        out = open(args.out, "w", encoding="utf-8") if args.out else None
    except OSError as exc:
        return _cannot_write(exc.filename)
    if lp_file:
        with lp_file:
            write_lp(build_cc(inst), lp_file)
    res = solve(inst, cfg)
    if args.json or out:
        payload = json.dumps(res.report(args.instance, inst, cfg), indent=2)
        if out:
            with out:
                out.write(payload + "\n")
        if args.json:
            print(payload)
    if not args.json:
        _print_human_report(inst, res)
    return EXIT_OK


def cmd_heuristic(args) -> int:
    inst = _load(args)
    if isinstance(inst, int):
        return inst

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
        sub_cfg = sparsify_config(SolverConfig(rng_seed=args.seed), args.time_limit)
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
        try:
            paths = write_suite(args.suite, spec, rng_seed=args.seed)
        except OSError:
            return _cannot_write(args.suite)
        print(f"wrote {len(paths)} instances to {args.suite}")
        return EXIT_OK
    if args.n is None or args.m is None or args.out is None:
        print("error: single-instance mode needs --n, --m and -o", file=sys.stderr)
        return EXIT_BAD_PARAMS
    try:
        inst, planted = generate(
            n=args.n,
            m=args.m,
            alpha=args.alpha if args.alpha is not None else DEFAULT_ALPHA,
            forward_strength=args.forward,
            coherence_strength=args.coherence,
            noise=args.noise,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
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
    try:
        save_instance(inst, args.out, fmt=args.fmt)
        with open(Path(args.out).with_suffix(".meta"), "w", encoding="utf-8") as fh:
            write_metadata(meta, fh)
    except OSError:
        return _cannot_write(args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    suite_dir = Path(args.suite)
    if not suite_dir.is_dir():
        print(f"error: suite directory {suite_dir} does not exist", file=sys.stderr)
        return EXIT_BAD_FILE
    paths = sorted(suite_dir.glob("*.cc"))
    if not paths:
        print(f"error: no .cc instances under {suite_dir}", file=sys.stderr)
        return EXIT_BAD_FILE
    instances = []
    for path in paths:
        inst = _read(path)
        if isinstance(inst, int):
            return inst
        instances.append((path.stem, inst))
    settings = [bench_mod.BenchSetting.parse(tok) for tok in args.settings.split(",") if tok.strip()]
    base_cfg = SolverConfig(time_limit_s=args.time_limit, node_limit=args.node_limit, rng_seed=args.seed)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            return _cannot_write(out_dir)
    reports = bench_mod.run_bench(instances, settings, base_cfg, out_dir=out_dir)
    summaries = bench_mod.aggregate(reports)
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
            cuts = Cuts.stack([separate(space, point) for separate in (separate_triangle, separate_subtour_path, separate_partition)])
            bad += int((max_integral_violation(inst, cuts) > 1e-9).sum())
        failures += bad > 0
        print(f"cut-validity n={n} m={m}: {'ok' if bad == 0 else f'{bad} INVALID CUTS'}")
    print("check: " + ("all ok" if failures == 0 else f"{failures} failures"))
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    defaults = SolverConfig()
    parser = argparse.ArgumentParser(prog="cyclecluster", description="Cycle clustering branch-and-cut solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_opts(p):
        p.add_argument("--m-override", type=int, default=None, help="override the cluster count from the file")
        p.add_argument("--alpha-override", type=float, default=None, help="override alpha from the file")

    p_solve = sub.add_parser("solve", help="run branch and cut on an instance file")
    p_solve.add_argument("instance")
    add_instance_opts(p_solve)
    p_solve.add_argument("--time-limit", type=float, default=defaults.time_limit_s, help=f"seconds (default {defaults.time_limit_s:g})")
    p_solve.add_argument("--node-limit", type=int, default=None)
    p_solve.add_argument("--sepa", default="all", help=f"{','.join(bench_mod.SEPA_ALIASES)} | none | all")
    p_solve.add_argument("--heur", default="all", help=f"{','.join(HEURISTIC_NAMES)} | none | all")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--cut-rounds-root", type=int, default=defaults.cut_rounds_root)
    p_solve.add_argument("--cut-rounds-node", type=int, default=defaults.cut_rounds_node)
    p_solve.add_argument("--json", action="store_true", help="print a machine-readable result")
    p_solve.add_argument("--out", default=None, help="also write the JSON result to this path")
    p_solve.add_argument("--export-lp", default=None, help="write the root model, without the vertex-0 pin, in LP text format")
    p_solve.set_defaults(func=cmd_solve)

    p_heur = sub.add_parser("heuristic", help="run a single primal heuristic")
    p_heur.add_argument("name", choices=HEURISTIC_NAMES)
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
    p_bench.add_argument("--time-limit", type=float, default=defaults.time_limit_s)
    p_bench.add_argument("--node-limit", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--json", action="store_true")
    p_bench.add_argument("--out", default=None, help="directory for per-run JSON reports and summary.json")
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
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except BrokenPipeError:  # pragma: no cover
        return EXIT_OK


def entry() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
