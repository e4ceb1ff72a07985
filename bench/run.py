"""Benchmark entry point for spectest.

    python3 bench/run.py --workload {mc_power,graphical,cli_cvll} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Every workload process is a fresh interpreter
with one BLAS thread and a single caller.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1 (names and units
from BENCHMARK.json).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
OUT = os.path.join(ROOT, "bench", "out")
WORKLOADS = ("mc_power", "graphical", "cli_cvll")
# Fresh interpreters that only set up; the timed worker's own set-up makes a fifth.
SETUP_ONLY_RUNS = 4
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Start worker.py, wait for it, and return (start instant, its JSON result)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within the run's {DEADLINE_S:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "spectest", "__init__.py")):
        raise BenchError(f"no spectest package under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    replies = [run_worker([*common, "--seconds", "0", "--setup-only"], deadline)
               for _ in range(SETUP_ONLY_RUNS)]
    replies.append(run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline))
    result = replies[-1][1]
    wall_setups = [reply["setup_done"] - started for started, reply in replies]
    setups = [wall * reply["setup_scale"] for wall, (_, reply) in zip(wall_setups, replies)]

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    for problem in result["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    summary = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in sorted(values.items())},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result_{args.workload}.json"), "w", encoding="utf-8") as handle:
        json.dump({**summary, "wall_clock": {**result["wall"], "setup_s": statistics.median(wall_setups)}},
                  handle, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        sys.exit(1)
