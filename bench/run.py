"""acalg benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory.  With ``--trace 0`` it measures set-up time, then repeats the
workload in fresh interpreters for about S seconds (at least once) and
reports the medians of the end-to-end metrics.  With ``--trace 1`` it runs
the workload once untraced and once traced, each in a fresh interpreter,
and reports the per-layer metrics and the tracing overhead.  The last line
of standard output is the result; problems go to standard error, and the
exit code is 1 when any output was wrong.  See README.md for the workloads,
the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("lie_tower", "cone_B", "rewrite_sweep", "queries")

#: what a user pays before the first command: interpreter, import, parser;
#: then the probe stamps the time and calibrates its own CPU's speed
SETUP_SNIPPET = (
    "import time; import acalg, acalg.cli; acalg.cli.build_parser(); done = time.monotonic(); "
    "import speedclock as s; print(done, s.speed_factor([s.calibrate() for _ in range(s.WINDOW)]))"
)
SETUP_PROBES = 11
#: a run must end within this many seconds, whatever --seconds says: runs
#: are given 180 s, and the rest is kept for starting and exiting.  A traced
#: cone_B run takes about 80 s (README.md), so it fits until cone_B gets
#: about twice as slow; beyond that a traced run fails, early and by name.
DEADLINE_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}


class BenchError(Exception):
    """A child process failed or the checkout holds no program to measure."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(BENCH)))
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"the run exceeded its {DEADLINE_S} s deadline")
    return left


def measure_setup(deadline: float) -> float:
    """Median time from spawning a fresh interpreter until it has imported
    acalg and built the CLI parser, in reference seconds: each probe is
    scaled by the speed it calibrates right after (see speedclock.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            env=_child_env(), capture_output=True, text=True, timeout=_remaining(deadline),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        done, speed = (float(x) for x in proc.stdout.split())
        times.append((done - start) * speed)
    return statistics.median(times)


def run_worker(workload: str, seed: int, trace: bool, workdir: str, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), "1" if trace else "0", workdir],
        env=_child_env(), capture_output=True, text=True, timeout=_remaining(deadline),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "acalg" / "__init__.py").is_file():
        raise BenchError(f"no acalg package under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        if trace:
            started = time.monotonic()
            plain = run_worker(workload, seed, False, workdir, deadline)
            plain_s = time.monotonic() - started
            # the traced repetition does the same work and more
            if plain_s > _remaining(deadline):
                raise BenchError(
                    f"the untraced repetition took {plain_s:.0f} s, so the traced one "
                    f"cannot end within the {DEADLINE_S} s deadline"
                )
            traced = run_worker(workload, seed, True, workdir, deadline)
            reps = [plain, traced]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            metrics["run.raw_wall_s"] = plain["raw_wall_s"]
            units = {name: layer_unit(name) for name in metrics}
        else:
            setup_s = measure_setup(deadline)
            reps = []
            start = time.monotonic()
            while True:
                rep = run_worker(workload, seed, False, workdir, deadline)
                reps.append(rep)
                print(
                    f"{workload} repetition {len(reps)}: wall_s {rep['wall_s']:.4f} "
                    f"(raw {rep['raw_wall_s']:.4f} s at speed {rep['speed']:.3f})",
                    file=sys.stderr,
                )
                elapsed = time.monotonic() - start
                if elapsed + elapsed / len(reps) > seconds:
                    break
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in reps),
                "setup_s": setup_s,
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            }
            # every repetition runs the same operations in the same order, so
            # each operation's latency is taken as its median over repetitions
            latencies = sorted(statistics.median(op) for op in zip(*(r["latencies"] for r in reps)))
            metrics["query_p50_ms"] = statistics.median(latencies) * 1e3
            metrics["query_p99_ms"] = nearest_rank(latencies, 0.99) * 1e3
            units = END_TO_END_UNITS
    problems = [p for r in reps for p in r["problems"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "problems": problems,
        "repetitions": len(reps),
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in reps),
    }


def nearest_rank(sorted_values, q):
    """The q-quantile by nearest rank: a value that was actually measured."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for problem in result.pop("problems"):
        print(problem, file=sys.stderr)
    result.pop("repetitions")
    print(f"raw wall time, median over repetitions: {result.pop('raw_wall_s'):.4f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
