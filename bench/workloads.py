"""The three benchmark workloads: inputs, the timed call, and its checks.

Each workload builds its inputs from the seed, exposes the calls of one round
(the round is the unit a run repeats, so failed ops are the same share of
attempted ops in every run), and checks recorded outputs against the direct
computations in reference.py after timing ends.

Inputs are drawn by the benchmark's own VAR(1) recursion, so they do not move
when the program's simulator changes.  Only mc_power simulates inside the
timed call, because simulation is the work it measures.

Each workload also names a calibration kernel: a fixed computation of the
same kind as its hot path, written here and never changed with the program.
The worker times it around every call and scales the call's wall time by
reference_s / kernel time, which cancels the drift in machine speed (see
README.md) while any change to spectest still moves the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import spectest.cli
import spectest.inference
import spectest.simulation
from spectest.divergence import J, KL
from spectest.hypotheses import EdgeSet, GraphicalModel, IndependenceModel
from spectest.inference import StatisticVariant
from spectest.spectral import WeightKernel, smoothed_periodogram

import reference


def coupled_process(phi: float) -> np.ndarray:
    """Coefficients of the 3-series design; components independent iff phi = 0."""
    return np.array([[0.7, phi, 0.0], [0.0, -0.5, phi], [0.0, 0.0, 0.6]])


def var1_sample(a: np.ndarray, n: int, rng: np.random.Generator, burn_in: int = 500) -> np.ndarray:
    eps = rng.standard_normal((burn_in + n, a.shape[0]))
    out = np.empty_like(eps)
    state = np.zeros(a.shape[0])
    for t in range(eps.shape[0]):
        state = a @ state + eps[t]
        out[t] = state
    return out[burn_in:]


_KERNEL_A = coupled_process(0.2)
_KERNEL_STACK = np.eye(3) + 0.1 * np.arange(1, 301)[:, None, None] * np.ones((300, 3, 3)) / 300
_KERNEL_W = np.exp(1j * np.arange(3003.0) ** 1.5).reshape(1001, 3)
_KERNEL_OFFSETS = np.concatenate([np.arange(-60, 0), np.arange(1, 61)])
_KERNEL_IDX = (np.arange(1, 501)[:, None] + _KERNEL_OFFSETS[None, :]) % 1001


def python_kernel() -> None:
    """Interpreter-bound work on tiny arrays, like a VAR recursion or a per-pair solve."""
    state = np.zeros(3)
    eps = np.full(3, 0.01)
    for _ in range(3000):
        state = _KERNEL_A @ state + eps
    for _ in range(40):
        np.linalg.eigvalsh(_KERNEL_STACK)
        np.linalg.solve(_KERNEL_STACK, np.ones((300, 3, 1)))


def batched_kernel() -> None:
    """Gathered window sums and batched 3x3 factorizations, like one CVLL span."""
    for _ in range(3):
        gathered = _KERNEL_W[_KERNEL_IDX]
        leave_out = np.einsum("tja,tjb->tab", gathered, gathered.conj()) / 120
        np.linalg.cholesky(leave_out)
        np.linalg.eigvalsh(leave_out)
        np.linalg.solve(leave_out, _KERNEL_W[1:501, :, None])


def close(actual: float, expected: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(actual) and abs(actual - expected) <= atol + rtol * abs(expected)


def compare_report(where: str, got: dict, want: dict, rtol: float, problems: list) -> None:
    """got: the program's report fields; want: reference.statistic output."""
    if not close(got["raw"], want["raw"], rtol):
        problems.append(f"{where}: raw {got['raw']!r} vs reference {want['raw']!r}")
    if not close(got["standardized"], want["standardized"], 0.0, atol=rtol * max(1.0, abs(want["raw"]))):
        problems.append(f"{where}: standardized {got['standardized']!r} vs reference {want['standardized']!r}")
    for key in ("eta_hat", "sigma2_hat"):
        if not close(got[key], want[key], 1e-12):
            problems.append(f"{where}: {key} {got[key]!r} vs reference {want[key]!r}")
    if not close(got["p_value"], want["p_value"], 0.0, atol=1e-6):
        problems.append(f"{where}: p_value {got['p_value']!r} vs reference {want['p_value']!r}")
    if got["reject"] != want["reject"] and abs(want["standardized"] - reference.CRITICAL) > 1e-6:
        problems.append(f"{where}: reject {got['reject']} vs reference {want['reject']}")
    if got["nonpd_count"] != 0 or got["forced_reject"]:
        problems.append(f"{where}: unexpected non-PD frequencies ({got['nonpd_count']})")


def report_fields(report) -> dict:
    return {key: getattr(report, key) for key in
            ("raw", "standardized", "eta_hat", "sigma2_hat", "p_value", "reject",
             "nonpd_count", "forced_reject")}


class McPower:
    """size_adjusted_power(threads=1) at the design of acceptance criterion 7.

    One call is a 100 + 100 replication study with its own seeds; one op is
    one replication.  A round is one study.
    """

    name = "mc_power"
    calibration, calibration_s = staticmethod(python_kernel), 0.025
    n, m, reps = 201, 30, 100
    # Full-KL power at phi = 0.2 in criterion 7 (1000 + 1000 replications).
    # Over 160 studies of 100 + 100, full-KL power had mean 0.878 and standard
    # deviation 0.048 per study; the offset comes from taking the critical
    # value from only 100 null replications.  The band allows 0.03 for the
    # offset plus five standard errors of the pooled mean.
    target_power, offset_allowance, study_sd = 0.858, 0.03, 0.048
    checked_replications = (0, 1)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.model = IndependenceModel()
        self.variants = (StatisticVariant("full", KL), StatisticVariant("quadratic"),
                         StatisticVariant("block", KL))
        self.null_process = spectest.simulation.benchmark_process(0.0)
        self.alt_process = spectest.simulation.benchmark_process(0.2)

    def ops_per_call(self, item) -> int:
        return 2 * self.reps

    def round(self, index: int) -> list:
        study_seed = 2 * (self.seed * 100_003 + index)
        configs = tuple(
            spectest.simulation.McConfig(
                process=process, n=self.n, bandwidth=self.m, model=self.model,
                variants=self.variants, replications=self.reps, seed=study_seed + offset,
            )
            for offset, process in enumerate((self.null_process, self.alt_process))
        )
        return [configs]

    def call(self, item):
        return spectest.simulation.size_adjusted_power(*item, threads=1)

    def failed(self, item, output) -> bool:
        return False

    def check(self, records, problems: list) -> None:
        pooled = {label: [] for label in ("full-kl", "quadratic", "block-kl")}
        for configs, powers in records:
            if set(powers) != set(pooled):
                problems.append(f"study {configs[0].seed}: labels {sorted(powers)}")
                continue
            for label, value in powers.items():
                if not 0.0 <= value <= 1.0:
                    problems.append(f"study {configs[0].seed}: {label} power {value}")
                pooled[label].append(value)
            self._check_replications(configs, problems)
        mean = {label: float(np.mean(values)) for label, values in pooled.items()}
        if not (mean["full-kl"] > mean["block-kl"] and mean["quadratic"] > mean["block-kl"]):
            problems.append(f"pooled power ordering violated: {mean}")
        band = self.offset_allowance + 5.0 * self.study_sd / math.sqrt(len(records))
        if abs(mean["full-kl"] - self.target_power) > band:
            problems.append(
                f"pooled full-KL power {mean['full-kl']:.4f} over {len(records)} studies "
                f"outside {self.target_power} +- {band:.4f}"
            )

    def _check_replications(self, configs, problems: list) -> None:
        """Regenerate a few replications of the study and check their statistics."""
        forms = [(v.form, v.kind.family) for v in self.variants]
        for config in configs:
            for k in self.checked_replications:
                sample = spectest.simulation.simulate_var1(
                    config.process, config.n, burn_in=config.burn_in,
                    seed=spectest.simulation.replication_seed(config.seed, k),
                )
                got = spectest.inference.run_many(sample, self.model, self.m, self.variants)
                want = reference.null_statistics(sample, "independence", self.m, forms)
                for variant, form in zip(self.variants, forms):
                    compare_report(f"study {config.seed} replication {k} {variant.label}",
                                   report_fields(got[variant.label]), want[form], 1e-9, problems)


class Graphical:
    """run_many on single samples under the graphical null of a 5-series chain.

    The cascade VAR(1) A = 0.5 I + 0.3 on the superdiagonal is tested against
    edges 1-2, 2-3, 3-4, 4-5 (six absent pairs).  One op is one call; a round
    visits each of the fixed samples once.
    """

    name = "graphical"
    calibration, calibration_s = staticmethod(python_kernel), 0.025
    n, m, r, samples = 512, 32, 5, 4
    completion_rtol = 1e-8
    dempster_rtol = 1e-8

    def __init__(self, seed: int, workdir: str):
        a = 0.5 * np.eye(self.r) + 0.3 * np.eye(self.r, k=1)
        rng = np.random.default_rng([seed, 2])
        self.inputs = [var1_sample(a, self.n, rng) for _ in range(self.samples)]
        self.edges = EdgeSet.from_pairs(self.r, [(i, i + 1) for i in range(self.r - 1)])
        self.model = GraphicalModel(self.edges)
        self.kernel = WeightKernel.flat(self.m)
        self.variants = (StatisticVariant("full", KL), StatisticVariant("full", J))

    def ops_per_call(self, item) -> int:
        return 1

    def round(self, index: int) -> list:
        return list(range(self.samples))

    def call(self, item):
        return spectest.inference.run_many(self.inputs[item], self.model, self.kernel, self.variants)

    def failed(self, item, output) -> bool:
        return False

    def check(self, records, problems: list) -> None:
        wanted = {}
        for item in sorted({item for item, _ in records}):
            wanted[item] = self._check_sample(item, problems)
        for item, reports in records:
            for variant in self.variants:
                compare_report(f"sample {item} {variant.label}", report_fields(reports[variant.label]),
                               wanted[item][variant.kind.family], 1e-8, problems)

    def _check_sample(self, item: int, problems: list) -> dict:
        z = self.inputs[item]
        f = reference.smoothed(reference.dft(z), self.m)
        g = reference.chain_completion(f)
        unrestricted = smoothed_periodogram(z, self.kernel)
        restricted = self.model.restricted_estimate(unrestricted).matrices
        scale = np.max(np.abs(f))
        if np.max(np.abs(unrestricted.matrices - f)) > 1e-10 * scale:
            problems.append(f"sample {item}: smoothed periodogram differs from the window sum")
        if np.max(np.abs(restricted - g)) > self.completion_rtol * scale:
            problems.append(f"sample {item}: covariance selection differs from the chain completion "
                            f"by {np.max(np.abs(restricted - g)) / scale:.2e}")
        kept = np.eye(self.r, dtype=bool)
        for a, b in self.edges.edges:
            kept[a, b] = kept[b, a] = True
        if np.max(np.abs((restricted - unrestricted.matrices)[:, kept])) > 1e-12 * scale:
            problems.append(f"sample {item}: covariance selection moved a diagonal or edge entry")
        inverse = np.linalg.inv(restricted)
        off = np.max(np.abs(inverse[:, ~kept]), axis=1) / np.max(np.abs(inverse), axis=(1, 2))
        if np.max(off) > self.dempster_rtol:
            problems.append(f"sample {item}: inverse entries on absent pairs up to {np.max(off):.2e}")
        absent = self.edges.missing_count
        eta, sigma2 = reference.null_constants("graphical", self.r, absent=absent)
        lam = reference.relative_eigenvalues(f, g)
        return {kind: reference.statistic(lam, "full", kind, self.n, self.m, eta, sigma2)
                for kind in ("kl", "j")}


def strict_json(text: str) -> dict:
    def refuse(constant):
        raise ValueError(f"non-finite number {constant} in JSON output")
    return json.loads(text, parse_constant=refuse)


class CliCvll:
    """spectest.cli.main(["test", ..., "--cvll"]) in-process, stdout captured.

    Nine CSV files of n = 1001 rows are drawn from the 3-series design at phi
    in {0, 0.1, 0.2} under the seed; the hypothesis alternates between
    independence and separable and the statistic cycles through full-KL,
    block-KL, quadratic and full-J.  The tenth input does not depend on the
    seed: its third column is the sum of the first two, under independence.
    One op is one invocation; a round runs all ten.
    """

    name = "cli_cvll"
    calibration, calibration_s = staticmethod(batched_kernel), 0.040
    n = 1001
    phis = (0.0, 0.1, 0.2)
    hypotheses = ("independence", "separable")
    statistics = (("full", "kl"), ("block", "kl"), ("quadratic", "kl"), ("full", "j"))
    collinear_seed = 20090909

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        self.items = []
        for i in range(9):
            sample = var1_sample(coupled_process(self.phis[i % 3]), self.n, rng)
            form, kind = self.statistics[i % 4]
            self.items.append(self._write(workdir, i, sample, self.hypotheses[i % 2], form, kind))
        base = var1_sample(coupled_process(0.0), self.n, np.random.default_rng(self.collinear_seed))
        collinear = np.column_stack([base[:, 0], base[:, 1], base[:, 0] + base[:, 1]])
        self.collinear = self._write(workdir, 9, collinear, "independence", "full", "kl")
        self.items.append(self.collinear)

    @staticmethod
    def _write(workdir, index, sample, hypothesis, form, kind) -> dict:
        path = os.path.join(workdir, f"cli_input_{index}.csv")
        np.savetxt(path, sample, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
        argv = ["test", "--input", path, "--hypothesis", hypothesis,
                "--stat", form, "--kind", kind, "--cvll"]
        return {"index": index, "sample": sample, "hypothesis": hypothesis,
                "variant": (form, kind), "argv": argv}

    def ops_per_call(self, item) -> int:
        return 1

    def round(self, index: int) -> list:
        return self.items

    def call(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = spectest.cli.main(item["argv"])
        return code, out.getvalue(), err.getvalue()

    def failed(self, item, output) -> bool:
        """True unless the invocation lands on a documented outcome.

        Documented: exit 0 with a strict-JSON report, a forced rejection (exit
        2, strict JSON, forced_reject true), or an addressed error (exit 1, a
        message on stderr, empty stdout).  A clean input must give a report.
        """
        code, out, err = output
        if code == 1 and item is self.collinear:
            return not (err.strip() and not out)
        try:
            document = strict_json(out)
        except ValueError:
            return True
        if code == 2:
            return document.get("forced_reject") is not True
        return code != 0 or item is self.collinear

    def check(self, records, problems: list) -> None:
        expected = {}
        for item, output in records:
            if item is self.collinear or self.failed(item, output):
                continue
            index = item["index"]
            if index not in expected:
                expected[index] = self._reference(item)
            span, want = expected[index]
            document = strict_json(output[1])
            if document["m"] != span:
                problems.append(f"input {index}: selected m = {document['m']}, reference CVLL argmin {span}")
                continue
            if document["n"] != self.n:
                problems.append(f"input {index}: n = {document['n']}")
            compare_report(f"input {index}", document, want, 1e-9, problems)

    def _reference(self, item):
        z = item["sample"] - item["sample"].mean(axis=0)
        grid = reference.cvll_grid(*z.shape)
        curve = reference.cvll_curve(reference.dft(z), grid)
        span = grid[int(np.argmin(curve))]
        want = reference.null_statistics(z, item["hypothesis"], span, [item["variant"]])
        return span, want[item["variant"]]


WORKLOADS = {cls.name: cls for cls in (McPower, Graphical, CliCvll)}
