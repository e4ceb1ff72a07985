"""One workload in one fresh interpreter: set up, warm up, time, check.

run.py starts this script; it prints one JSON object on stdout.  With
--setup-only it stops once spectest is imported and the inputs are built, and
reports that instant and a speed scale, so run.py can time set-up from the
interpreter's start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
# Set-up is mostly imports, interpreter-bound work, so it is scaled by the
# python kernel, timed once right after set-up in the same interpreter.
SETUP_CALIBRATION_S = 0.025


def import_program():
    """Import spectest from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import spectest

    if not os.path.abspath(spectest.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"spectest was imported from {spectest.__file__}, not from {SRC}")


def seconds_of(work) -> float:
    began = time.perf_counter()
    work()
    return time.perf_counter() - began


def timed_rounds(workload, seconds: float, first_round: int, tracer=None):
    """Run whole rounds until `seconds` have passed.

    One record per call: (item, output, wall seconds, speed scale), where the
    scale is the workload's calibration reference time over the mean time of
    its calibration kernel just before and just after the call.
    """
    records = []
    index = first_round
    before = seconds_of(workload.calibration)
    start = time.perf_counter()
    while True:
        for item in workload.round(index):
            if tracer is not None:
                tracer.op += 1
                span = tracer.enter("op")
            began = time.perf_counter()
            output = workload.call(item)
            elapsed = time.perf_counter() - began
            if tracer is not None:
                tracer.leave(span)
            after = seconds_of(workload.calibration)
            records.append((item, output, elapsed, 2.0 * workload.calibration_s / (before + after)))
            before = after
        index += 1
        if time.perf_counter() - start >= seconds:
            return records, index


def summarize(workload, records) -> dict:
    """Counts, and rates and medians in both scaled and wall seconds."""
    attempted = failed = completed = 0
    busy = {"scaled": 0.0, "wall": 0.0}
    per_op = {"scaled": [], "wall": []}
    for item, output, elapsed, scale in records:
        ops = workload.ops_per_call(item)
        attempted += ops
        busy["scaled"] += elapsed * scale
        busy["wall"] += elapsed
        if workload.failed(item, output):
            failed += ops
        else:
            completed += ops
            per_op["scaled"].append(elapsed * scale / ops)
            per_op["wall"].append(elapsed / ops)
    return {
        "attempted": attempted,
        "failed": failed,
        "ops_per_s": completed / busy["scaled"],
        "op_s_p50": statistics.median(per_op["scaled"]),
        "wall": {"ops_per_s": completed / busy["wall"], "op_s_p50": statistics.median(per_op["wall"])},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_program()
    from workloads import WORKLOADS, python_kernel

    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    setup_done = time.perf_counter()
    setup_scale = SETUP_CALIBRATION_S / seconds_of(python_kernel)
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "setup_scale": setup_scale}))
        return 0

    first = workload.round(0)[0]
    workload.call(first)  # warm-up, not counted

    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    records, next_round = timed_rounds(workload, untraced_seconds, 0)
    untraced = summarize(workload, records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_done": setup_done,
        "setup_scale": setup_scale,
        "wall": untraced["wall"],
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "metrics": {
            "ops_per_s": untraced["ops_per_s"],
            "op_s_p50": untraced["op_s_p50"],
            "peak_rss_mb": peak_rss_mb,
        },
    }
    problems = []
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_records, _ = timed_rounds(workload, args.seconds / 2, next_round, tracer)
        finally:
            tracer.uninstall()
        traced = summarize(workload, traced_records)
        layers, gap = tracer.layer_metrics(traced["attempted"], [scale for *_, scale in traced_records])
        if gap > 1e-9:
            problems.append(f"an op's self times miss its traced duration by {gap:.3e} s")
        layers["trace.overhead_s"] = traced["op_s_p50"] - untraced["op_s_p50"]
        tracer.write(os.path.join(OUT, f"trace_{args.workload}.json"))
        records += traced_records
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["metrics"] = layers
    workload.check([(item, output) for item, output, *_ in records], problems)
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
