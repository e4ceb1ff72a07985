"""Time the benchmark's three designs on two source trees in one interpreter, in interleaved pairs.

    python3 tools/ab_inprocess.py --base OLD_TREE --head NEW_TREE [--pairs N]

Each tree is a checkout holding src/spectest.  Both packages are imported into one process, each under
a name of its own, and run on the same inputs:

* graphical  inference.run_many on four 512 x 5 VAR(1) samples (A = 0.5 I + 0.3 on the superdiagonal)
             under the 5-series chain null, a flat span of 32, full-KL and full-J;
* mc_power   simulation.size_adjusted_power(threads=1), 100 + 100 replications at n = 201 and span 30
             of the 3-series benchmark process (phi = 0 against 0.2), full-KL, quadratic and block-KL;
* cli_cvll   cli.main(["test", ..., "--cvll"]) on four fixed 1001 x 3 CSVs in a temporary directory,
             under independence and separable, stdout and stderr captured.

A pair times the base and the head once each, and the side that goes first alternates from pair to
pair.  A timing is the median wall time of one call over a few passes over the design's inputs, after
one warm-up pass per side.  For each design the tool prints the median of head / base over the pairs,
with its quartiles, and the share of pairs in which the head was faster.  With the same tree on both
sides this gives the noise floor.  It sets one BLAS thread unless the environment names a count, and
uses only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import numpy as np  # noqa: E402 (after the thread counts)


def load(tree: str, name: str):
    """Import tree's src/spectest as the package `name`, with its submodules."""
    root = os.path.join(os.path.abspath(tree), "src", "spectest")
    spec = importlib.util.spec_from_file_location(name, os.path.join(root, "__init__.py"),
                                                  submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "divergence", "hypotheses", "inference", "simulation", "spectral"):
        importlib.import_module(f"{name}.{module}")
    return package


def var1_sample(a: np.ndarray, n: int, rng: np.random.Generator, burn_in: int = 500) -> np.ndarray:
    eps = rng.standard_normal((burn_in + n, len(a)))
    state, out = np.zeros(len(a)), np.empty_like(eps)
    for t, e in enumerate(eps):
        state = a @ state + e
        out[t] = state
    return out[burn_in:]


def graphical_calls(spectest) -> list:
    a = 0.5 * np.eye(5) + 0.3 * np.eye(5, k=1)
    rng = np.random.default_rng([3101, 2])
    samples = [var1_sample(a, 512, rng) for _ in range(4)]
    chain = spectest.hypotheses.EdgeSet.from_pairs(5, [(i, i + 1) for i in range(4)])
    model = spectest.hypotheses.GraphicalModel(chain)
    kernel = spectest.spectral.WeightKernel.flat(32)
    variants = [spectest.inference.StatisticVariant("full", kind) for kind in (spectest.divergence.KL,
                                                                               spectest.divergence.J)]
    return [lambda z=z: spectest.inference.run_many(z, model, kernel, variants) for z in samples]


def mc_power_calls(spectest) -> list:
    sim, inference, kl = spectest.simulation, spectest.inference, spectest.divergence.KL
    variants = (inference.StatisticVariant("full", kl), inference.StatisticVariant("quadratic"),
                inference.StatisticVariant("block", kl))
    model = spectest.hypotheses.IndependenceModel()
    calls = []
    for seed in (3201, 3203):
        configs = [sim.McConfig(process=sim.benchmark_process(phi), n=201, bandwidth=30, model=model,
                                variants=variants, replications=100, seed=seed + offset)
                   for offset, phi in enumerate((0.0, 0.2))]
        calls.append(lambda configs=configs: sim.size_adjusted_power(*configs, threads=1))
    return calls


def cli_cvll_calls(spectest, folder: str) -> list:
    rng = np.random.default_rng([3201, 3])
    calls = []
    for index, (phi, hypothesis) in enumerate(((0.0, "independence"), (0.1, "separable"), (0.2, "independence"),
                                               (0.0, "separable"))):
        path = os.path.join(folder, f"input_{index}.csv")
        if not os.path.exists(path):
            a = np.array([[0.7, phi, 0.0], [0.0, -0.5, phi], [0.0, 0.0, 0.6]])
            np.savetxt(path, var1_sample(a, 1001, rng), fmt="%.17g", delimiter=",", header="a,b,c", comments="")
        argv = ["test", "--input", path, "--hypothesis", hypothesis, "--stat", "full", "--kind", "kl", "--cvll"]

        def call(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return spectest.cli.main(argv)
        calls.append(call)
    return calls


def timing(calls: list, passes: int) -> float:
    """The median wall time of one call over passes passes over calls."""
    times = []
    for _ in range(passes):
        for call in calls:
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="tree holding the base src/spectest")
    parser.add_argument("--head", required=True, help="tree holding the head src/spectest")
    parser.add_argument("--pairs", type=int, default=20, help="interleaved pairs per design (default 20)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = [load(args.base, "spectest_base"), load(args.head, "spectest_head")]
    with tempfile.TemporaryDirectory() as folder:
        designs = [("graphical", 8, graphical_calls), ("mc_power", 1, mc_power_calls),
                   ("cli_cvll", 2, lambda spectest: cli_cvll_calls(spectest, folder))]
        print(f"{'design':<10} {'pairs':>5} {'base ms':>9} {'head ms':>9} {'head/base (q1, q3)':>26} "
              f"{'head faster':>11}")
        for name, passes, build in designs:
            sides = [build(spectest) for spectest in trees]
            for calls in sides:
                timing(calls, 1)  # warm-up
            pairs = []
            for pair in range(args.pairs):
                order = (0, 1) if pair % 2 == 0 else (1, 0)
                times = {side: timing(sides[side], passes) for side in order}
                pairs.append((times[0], times[1]))
            ratios = [head / base for base, head in pairs]
            median = statistics.median(ratios)
            q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
            faster = sum(head < base for base, head in pairs) / len(pairs)
            base_ms = 1e3 * statistics.median(base for base, _ in pairs)
            head_ms = 1e3 * statistics.median(head for _, head in pairs)
            print(f"{name:<10} {len(pairs):>5} {base_ms:>9.3f} {head_ms:>9.3f} "
                  f"{median:>9.4f} ({q1:.4f}, {q3:.4f}) {faster:>11.0%}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
