"""upcyclenet benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload oracle-tiny --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from `src/` of the
checkout that holds this file.  A run sets up the workload three
times, then runs timed passes until `--seconds` of pass time are used (at
least one pass), checking every pass's outputs outside the timed region.

With `--trace 0` the result carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics, taken
from spans around calls into the package (tracing.py), and the spans are
written to `.bench_out/`.  The line before the result is a record of the
run: the workload's shape, the machine, pass and set-up samples, the
failure ratio and, on oracle-tiny, per-instance latency.  See README.md in
this directory for every metric and what should move it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "upcyclenet" / "__init__.py",
                   ROOT / "tests" / "scipy_milp_adapter.py"):
        if not needed.is_file():
            print(f"benchmark: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    from probe import SpeedProbe

    probe = SpeedProbe()
    with probe.sampling():
        t0 = time.perf_counter()
        import upcyclenet  # noqa: F401
        import_s = probe.normalise(time.perf_counter() - t0)
    import bench
    import workloads

    bench.keep_temp_files_in_checkout()
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    record, result = bench.measure(workload, args.seed, args.seconds, bool(args.trace), import_s)
    for failure in record["failures"]:
        print(f"benchmark: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
