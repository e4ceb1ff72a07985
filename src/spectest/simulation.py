"""Gaussian VAR(1) simulation and Monte Carlo calibration of the tests.

The benchmark design is a three-dimensional first-order autoregression
with an upper-triangular coefficient matrix

    [[0.7, phi, 0.0],
     [0.0, -0.5, phi],
     [0.0, 0.0, 0.6]]

and standard Gaussian innovations.  Its eigenvalues are fixed at
{0.7, -0.5, 0.6} whatever phi is, so the process stays stationary, and the
three series are mutually independent exactly when phi = 0.  Null
summaries estimate the moments, upper quantile, and rejection rate of the
standardized statistics over independent replications; power studies use
the empirical null quantile as the critical value (size-adjusted power).

Every path starts from the exact stationary law, Z_0 ~ N(0, Gamma_0) with
Gamma_0 = A Gamma_0 A^T + Sigma, so no burn-in is needed.  Replication k of a
run seeded with s draws from the dedicated stream SeedSequence(s, spawn_key=(k,)).
Replications run in simulation blocks, each simulated by one recursion that
shares its per-step cost and tested by run_many's stacked pipeline in chunks
that bound its memory.  A worker task is one block.  No step mixes samples,
so results are bit-identical for any block size, chunk size or worker count,
and to run_many on each replication's sample.
"""

from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NonStationary
from .hermitian import is_positive_definite
from .inference import _check_alpha, _run_samples, normal_quantile, run_many  # noqa: F401 (bench/tracing.py wraps it)
from .spectral import _check_span

# Path elements (block * (burn_in + n) * r) per simulation block: 663 replications and a
# 3.2 MB path at n = 201, r = 3 and no burn-in, so a run of 100 replications there is one
# block per worker.  Larger blocks save little time.
_BLOCK_ELEMENTS = 400_000
# Elements (chunk * n * r^2) per pipeline chunk within a block: 22 replications at n = 201,
# r = 3.  It bounds the pipeline's peak memory, about 135 KiB per replication there.
_CHUNK_ELEMENTS = 40_000


@dataclass(frozen=True, eq=False)
class VarOneProcess:
    """First-order vector autoregression Z_t = A Z_{t-1} + eps_t."""

    a: np.ndarray
    innovation_cov: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"coefficient matrix must be square, got shape {a.shape}")
        object.__setattr__(self, "a", a)
        if self.spectral_radius >= 1.0:
            raise NonStationary(
                f"spectral radius {self.spectral_radius:.4f} >= 1; the process has no stationary law"
            )
        if self.innovation_cov is not None:
            cov = np.asarray(self.innovation_cov, dtype=float)
            if cov.shape != a.shape:
                raise ValueError("innovation covariance must match the coefficient matrix")
            if not is_positive_definite(cov):
                raise ValueError("innovation covariance must be positive definite")
            object.__setattr__(self, "innovation_cov", cov)

    @property
    def r(self) -> int:
        return self.a.shape[0]

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.a))))

    @property
    def stationary_cov(self) -> np.ndarray:
        """Gamma_0 = Var Z_t, from vec Gamma_0 = (I - A (x) A)^{-1} vec Sigma (Sigma = I if unset)."""
        r = self.r
        sigma = np.eye(r) if self.innovation_cov is None else self.innovation_cov
        gamma = np.linalg.solve(np.eye(r * r) - np.kron(self.a, self.a), sigma.ravel()).reshape(r, r)
        return (gamma + gamma.T) / 2


def benchmark_process(phi: float) -> VarOneProcess:
    """The built-in 3-series benchmark; independent components iff phi = 0."""
    return VarOneProcess(a=np.array([[0.7, phi, 0.0], [0.0, -0.5, phi], [0.0, 0.0, 0.6]]))


def replication_seed(seed: int, k: int) -> np.random.SeedSequence:
    """Deterministic independent stream for replication k of a run."""
    return np.random.SeedSequence(seed, spawn_key=(k,))


def _check_design(n: int, burn_in: int) -> None:
    if n < 8:
        raise ValueError(f"need n >= 8, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")


def _simulate_stack(process: VarOneProcess, n: int, burn_in: int, seeds) -> np.ndarray:
    """An (R, n, r) stack of samples, one per seed, from one recursion over an (r, R) state.

    Each sample draws (burn_in + n, r) standard normals eps from default_rng(seed):
    the stationary start is Z_0 = eps[0] @ chol(Gamma_0).T, and the innovations
    follow.  The update eps[t] + sum_j a[:, j] * state[j], in ascending j, is
    elementwise over contiguous R-long rows, so no sample's values depend on the others.
    """
    r, total = process.r, burn_in + n
    cov = process.innovation_cov
    factor = None if cov is None else np.linalg.cholesky(cov).T
    start = np.linalg.cholesky(process.stationary_cov).T
    path = np.empty((total, r, len(seeds)))  # Z_0 and innovations, overwritten by the states
    for k, seed in enumerate(seeds):
        eps = np.random.default_rng(seed).standard_normal((total, r))
        path[:, :, k] = eps if factor is None else eps @ factor
        path[0, :, k] = eps[0] @ start
    columns = process.a.T[:, :, np.newaxis]  # columns[j, i, 0] = a[i, j]
    previous, products = path[0], np.empty((r,) + path.shape[1:])
    for state in path[1:]:
        np.multiply(columns, previous[:, np.newaxis, :], out=products)
        for product in products:  # product j = a[:, j] * state[j]
            state += product
        previous = state
    return np.ascontiguousarray(path[burn_in:].transpose(2, 0, 1))


def simulate_var1(process: VarOneProcess, n: int, burn_in: int = 0, seed=None) -> np.ndarray:
    """Simulate n observations from the stationary law, after discarding burn_in steps."""
    _check_design(n, burn_in)
    return _simulate_stack(process, n, burn_in, [seed])[0]


@dataclass(frozen=True, eq=False)
class McConfig:
    """One Monte Carlo run: process, sample design, hypothesis, statistics."""

    process: VarOneProcess
    n: int
    bandwidth: object  # even integer span, or "cvll"
    model: object
    variants: tuple
    replications: int
    seed: int
    burn_in: int = 0  # steps run after the stationary start and discarded
    alpha_level: float = 0.05

    def __post_init__(self):
        if self.bandwidth != "cvll":  # stored as the int it checks to, so the manifest can dump it
            object.__setattr__(self, "bandwidth", _check_span(self.bandwidth, r=self.process.r, n=self.n, centre=True))
        _check_design(self.n, self.burn_in)
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if not self.variants:
            raise ValueError("at least one statistic variant is required")
        _check_alpha(self.alpha_level)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(v.label for v in self.variants)


@dataclass(frozen=True)
class McSummary:
    """Moments, upper quantile, and rejection rate of a standardized statistic.

    kurtosis is the plain (non-excess) fourth standardized moment, limit 3.
    rejection_rate is the empirical size under a null configuration and the
    power under an alternative one.
    """

    mean: float
    variance: float
    skewness: float
    kurtosis: float
    q95: float
    rejection_rate: float
    replications: int


def _run_block(config: McConfig, ks: range) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Standardized values and forced flags per variant for replications ks, in order, from run_many's pipeline."""
    seeds = [replication_seed(config.seed, k) for k in ks]
    size = max(1, _CHUNK_ELEMENTS // (config.n * config.process.r**2))
    # no name holds the simulated block, so it is freed once equilibrated: keeping it made the pipeline slower
    rows = _run_samples(_simulate_stack(config.process, config.n, config.burn_in, seeds), config.model,
                        config.bandwidth, config.variants, size)[1]
    return {label: (row["standardized"], row["nonpd"] > 0) for label, row in rows.items()}


def _collect(config: McConfig, threads: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Standardized values and forced flags per variant, ordered by replication."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    # at most _BLOCK_ELEMENTS / ((burn_in + n) r) replications per block, and at least one block per worker
    size = _BLOCK_ELEMENTS // ((config.burn_in + config.n) * config.process.r)
    size = max(1, min(size, -(-config.replications // threads)))
    blocks = [range(k, min(k + size, config.replications)) for k in range(0, config.replications, size)]
    if threads == 1:
        results = [_run_block(config, ks) for ks in blocks]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_block, [config] * len(blocks), blocks))
    collected = {label: (np.empty(config.replications), np.empty(config.replications, dtype=bool))
                 for label in config.labels}
    for ks, block in zip(blocks, results):
        for label, (values, forced) in collected.items():
            values[ks.start : ks.stop], forced[ks.start : ks.stop] = block[label]
    return collected


def _summarize(values: np.ndarray, forced: np.ndarray, alpha_level: float) -> McSummary:
    count = values.size
    mean = float(np.mean(values))
    centered = values - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    critical = normal_quantile(1.0 - alpha_level)
    return McSummary(
        mean=mean,
        variance=float(np.sum(centered**2) / (count - 1)),
        skewness=m3 / m2**1.5,
        kurtosis=m4 / m2**2,
        q95=float(np.quantile(values, 0.95)),
        rejection_rate=float(np.mean(forced | (values > critical))),
        replications=count,
    )


def null_summary(config: McConfig, threads: int = 1) -> dict[str, McSummary]:
    """Null-distribution summaries per variant over independent replications."""
    if config.replications < 100:
        raise ValueError("summary outputs need at least 100 replications")
    collected = _collect(config, threads)
    return {
        label: _summarize(values, forced, config.alpha_level)
        for label, (values, forced) in collected.items()
    }


def size_adjusted_power(
    null_config: McConfig, alt_config: McConfig, threads: int = 1
) -> dict[str, float]:
    """Rejection rate under the alternative at the empirical null critical value.

    The critical value per variant is the (1 - alpha) quantile of the
    standardized statistic under null_config; the two configurations must
    share the sample design and statistic set.
    """
    if null_config.labels != alt_config.labels:
        raise ValueError("configurations must run the same statistic variants")
    if (null_config.n, null_config.bandwidth) != (alt_config.n, alt_config.bandwidth):
        raise ValueError("configurations must share n and the bandwidth rule")
    if min(null_config.replications, alt_config.replications) < 100:
        raise ValueError("summary outputs need at least 100 replications")
    null_runs = _collect(null_config, threads)
    alt_runs = _collect(alt_config, threads)
    powers = {}
    for label in null_config.labels:
        null_values, _ = null_runs[label]
        critical = float(np.quantile(null_values, 1.0 - null_config.alpha_level))
        values, forced = alt_runs[label]
        powers[label] = float(np.mean(forced | (values > critical)))
    return powers


def _row(config: McConfig, label: str, moments, rate_column: str, rate: float) -> dict:
    """One CSV row: the variant's design columns, the moment columns, then the rate."""
    variant = {v.label: v for v in config.variants}[label]
    row = {"variant": variant.form, "n": config.n, "m": config.bandwidth, "stat": variant.kind_label}
    row.update(zip(("mean", "var", "skew", "kurt", "q95"), moments))
    row[rate_column] = rate
    return row


def summary_rows(config: McConfig, summaries: dict[str, McSummary]) -> list[dict]:
    """Flatten summaries to the CSV row schema (one row per variant), the rejection rate as size."""
    return [_row(config, label, (s.mean, s.variance, s.skewness, s.kurtosis, s.q95), "size", s.rejection_rate)
            for label, s in summaries.items()]


def power_rows(config: McConfig, powers: dict[str, float]) -> list[dict]:
    """CSV rows for a power study (moment columns left empty)."""
    return [_row(config, label, [""] * 5, "power", power) for label, power in powers.items()]


def write_summary_csv(rows: list[dict], stream) -> None:
    """Write rows with 6-significant-digit floats; schema from the first row."""
    if not rows:
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: f"{value:.6g}" if isinstance(value, float) else value for col, value in row.items()})


def config_manifest(config: McConfig, command: str) -> dict:
    """JSON-ready run manifest: resolved config, seed, and a content hash."""
    model = config.model
    model_desc = {"name": getattr(model, "name", type(model).__name__)}
    edges = getattr(model, "edges", None)
    if edges is not None:
        model_desc["edges"] = sorted([a + 1, b + 1] for a, b in edges.edges)
        model_desc["r"] = edges.r
    payload = {
        "command": command,
        "process": {
            "a": np.asarray(config.process.a).tolist(),
            "innovation_cov": None
            if config.process.innovation_cov is None
            else np.asarray(config.process.innovation_cov).tolist(),
        },
        "n": config.n,
        "bandwidth": config.bandwidth,
        "model": model_desc,
        "variants": list(config.labels),
        "replications": config.replications,
        "seed": config.seed,
        "burn_in": config.burn_in,
        "alpha_level": config.alpha_level,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {"config": payload, "seed": config.seed, "content_hash": hashlib.sha1(canonical.encode()).hexdigest()}
