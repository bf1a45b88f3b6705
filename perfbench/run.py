"""Benchmark of the cyclecluster solver, run from the root of a source checkout.

    python3 perfbench/run.py --workload tree|root|heuristic --seed N --seconds S --trace 0|1

One process runs one workload in a closed loop, one operation at a time, in
whole passes over the workload's instances, for about `--seconds`.  Every
output is checked.  The last line of standard output is one JSON object:
the end-to-end metrics with `--trace 0`; with `--trace 1`, the per-layer
metrics of a traced pass that follows an untraced one over the same
instances.  Metric names and units come from BENCHMARK.json.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclecluster" / "engine.py").is_file():
        print(f"error: no solver sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    # Before numpy loads: OpenBLAS would otherwise size its thread pool on its own.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = harness.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        spec,
        import_s=time.perf_counter() - T_START,
        trace_dir=ROOT / ".bench_traces",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
