"""Every end-to-end metric of every workload, by name and unit, in one table.

    python3 bench/report.py [--seed N] [--seconds S] [--trace]

Runs the four workloads one after another exactly as ``run.py`` does and
prints one line per metric, plus ``failed_frac`` (wrong outputs over
outputs checked) per workload, and the uncorrected wall time next to
``wall_s`` (see speedclock.py).  ``--trace`` adds the per-layer metrics of
a traced run of each workload.  Exits 1 if any output was wrong.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

from run import WORKLOADS, BenchError, run_benchmark


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    all_correct = True
    print(f"{'workload':<14} {'metric':<40} {'value':>14}  unit")
    for workload in WORKLOADS:
        runs = [False, True] if args.trace else [False]
        for trace in runs:
            try:
                result = run_benchmark(workload, args.seed, args.seconds, trace)
            except (BenchError, subprocess.TimeoutExpired) as exc:
                print(f"benchmark failed: {exc}", file=sys.stderr)
                return 2
            for problem in result["problems"]:
                print(f"{workload}: {problem}", file=sys.stderr)
            all_correct = all_correct and result["correct"]
            for name, metric in result["metrics"].items():
                print(f"{workload:<14} {name:<40} {metric['value']:>14.6g}  {metric['unit']}")
            if not trace:
                frac = result["failed"] / result["attempted"]
                print(f"{workload:<14} {'failed_frac':<40} {frac:>14.6g}  "
                      f"share of {result['attempted']} outputs checked")
                print(f"{workload:<14} {'repetitions':<40} {result['repetitions']:>14}  count")
                print(f"{workload:<14} {'raw_wall_s':<40} {result['raw_wall_s']:>14.6g}  "
                      "s of wall clock, median over repetitions, uncorrected")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
