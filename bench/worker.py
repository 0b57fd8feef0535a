"""One repetition of one workload in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED TRACE WORKDIR

Run with ``src`` on PYTHONPATH (``run.py`` does this).  Imports acalg,
builds the CLI parser, prepares the seeded inputs, then times every
operation and checks every output.  With TRACE=1 the layer tracer is
installed before the first operation and removed after the last.  The last
line of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from speedclock import SpeedClock
from tracer import CENSUS_DEGREES, COUNTERS, SPAN_NAMES, Tracer

#: layers the traced run must see called, per workload (see README.md)
REQUIRED_LAYERS = {
    "lie_tower": (
        "scalars.created", "scalars.zero_tests", "algebra.product",
        "algebra.rewrite_word", "lie.basis", "linalg.span_add",
    ),
    "cone_B": (
        "scalars.created", "scalars.zero_tests", "algebra.product",
        "linalg.span_add", "linalg.span_contains", "linalg.nullspace", "linalg.rank",
        "linalg.solve_columns", "linalg.matmul", "cohomology.ad_matrix",
        "cohomology.cohomology_data", "cohomology.induced_map", "cohomology.les_check",
    ),
    "rewrite_sweep": ("algebra.rewrite_word",),
    "queries": (
        "scalars.created", "scalars.zero_tests", "algebra.product",
        "linalg.solve_columns", "linalg.matmul", "linalg.span_add", "linalg.nullspace",
        "mc.is_mc", "mc.strata_nullity", "mc.quotient_nullity",
        "reps.verify_relations", "reps.quotient_faithfulness",
        "exprs.parse_element", "exprs.render", "cli.main",
    ),
}

#: ad_mubar from B_10 to B_11 as the ROADMAP measured it: shape, nonzeros, rank
CENSUS_B10 = (2048, 1024, 5120, 682)


def run(workload_name: str, seed: int, trace: bool, workdir: Path) -> dict:
    importlib.import_module("acalg")
    importlib.import_module("acalg.cli").build_parser()
    workload = workloads.WORKLOADS[workload_name](seed, workdir)

    speed = SpeedClock().start()
    clock = speed.now
    tracer = Tracer(clock).install() if trace else None
    wall_start = time.perf_counter()
    latencies = []
    attempted = failed = 0
    problems = []
    for kind, detail, op in workload.ops():
        start = clock()
        try:
            result = op()
        except Exception:
            latencies.append(clock() - start)
            attempted += 1
            failed += 1
            if len(problems) < 10:
                problems.append(f"{kind} {detail!r}: {traceback.format_exc(limit=3)}")
            continue
        latencies.append(clock() - start)
        try:
            checked, wrong = workload.check(kind, detail, result)
        except (ValueError, KeyError, TypeError, IndexError):
            # output the checker cannot even read is wrong output
            checked, wrong = 1, 1
        attempted += checked
        failed += wrong
        if wrong and len(problems) < 10:
            problems.append(f"{kind} {detail!r}: wrong output")
    raw_wall_s = time.perf_counter() - wall_start
    if tracer is not None:
        tracer.remove()
    speed.stop()
    if not speed.alone:
        problems.append(
            "acalg ran a second thread or a child process while timed: the speed "
            "correction would count their CPU use as the machine being slow, so "
            "this run's times are not valid (see speedclock.py)"
        )
    if hasattr(workload, "finish"):
        mismatched = workload.finish()
        failed += mismatched
        if mismatched:
            problems.append(f"{mismatched} outputs differ from the recorded digests")

    out = {
        "wall_s": sum(latencies),
        "raw_wall_s": raw_wall_s,
        "speed": speed.median_speed(),
        "latencies": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        problems.extend(trace_problems(workload_name, tracer, out["layers"]))
    return out


def layer_metrics(tracer: Tracer) -> dict:
    layers = {}
    for name in SPAN_NAMES:
        layers[f"{name}.calls"] = tracer.calls[name]
        layers[f"{name}.self_s"] = tracer.self_s[name]
    for name in COUNTERS:
        layers[name] = tracer.counters[name]
    layers["algebra.rewrite_cache.hit_ratio"] = tracer.rewrite_cache_hit_ratio()
    census = tracer.census()
    for k in CENSUS_DEGREES:
        rows, cols, nnz, rank = census.get(k, (0, 0, 0, 0))
        layers[f"census.ad_B{k}.rows"] = rows
        layers[f"census.ad_B{k}.cols"] = cols
        layers[f"census.ad_B{k}.nnz"] = nnz
        layers[f"census.ad_B{k}.rank"] = rank
    return layers


def trace_problems(workload_name: str, tracer: Tracer, layers: dict) -> list[str]:
    problems = []
    for layer in REQUIRED_LAYERS[workload_name]:
        seen = layers.get(f"{layer}.calls", layers.get(layer, 0))
        if not seen:
            problems.append(f"traced run recorded no calls of {layer}")
    if workload_name == "cone_B":
        census = tracer.census()
        if census.get(10) != CENSUS_B10:
            problems.append(f"census of ad_mubar B_10 -> B_11 is {census.get(10)}, not {CENSUS_B10}")
        # H(B, ad mubar) = 1: dim B_k - rank out of B_k - rank into B_k = 1
        for k in CENSUS_DEGREES[1:]:
            if k in census and k - 1 in census and census[k][1] - census[k][3] - census[k - 1][3] != 1:
                problems.append(f"census ranks at degree {k} disagree with dim H = 1")
    return problems


def main(argv) -> int:
    workload_name, seed, trace, workdir = argv[1], int(argv[2]), argv[3] == "1", Path(argv[4])
    out = run(workload_name, seed, trace, workdir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
