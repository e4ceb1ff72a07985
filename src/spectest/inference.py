"""Test statistics on spectral sequence pairs, standardization, and decisions.

The raw statistic accumulates a discrepancy between the unrestricted and
restricted spectral estimates over Fourier frequencies.  Four assembly
forms exist:

* full        sum over every t = 1 .. n//2
* quadratic   same index set, discrepancy fixed to the quadratic one
* block       only every (m+1)-th frequency, so the summands are nearly
              independent and the statistic needs a smaller deflator
* weighted    full sum with a frequency weight phi(lambda_t)

Standardization maps the raw sum to an asymptotically standard normal
variable using the hypothesis constants (eta, sigma^2), the discrepancy
curvature, and for the block form the kernel deflator sqrt(B/D).  The
test is one-sided: large positive values reject.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .divergence import KL, QUADRATIC, Discrepancy, _pencil_terms
from .errors import AlignmentMismatch, DegenerateVariance
from .hermitian import relative_eigenvalues_stack  # noqa: F401 (bench/tracing.py wraps it)
from .hypotheses import EtaSigma
from .spectral import SpectralSequence, WeightKernel, cvll_select, dft, smoothed_periodogram, validate_sample

VALID_FORMS = ("full", "quadratic", "block", "weighted")


@dataclass(frozen=True)
class StatisticVariant:
    """Assembly form plus discrepancy choice.

    kind is ignored by the quadratic form.  The weighted form requires a
    nonnegative weight function phi on [0, pi].
    """

    form: str
    kind: Discrepancy = KL
    phi: object = None

    def __post_init__(self):
        if self.form not in VALID_FORMS:
            raise ValueError(f"unknown statistic form {self.form!r}")
        if self.form == "weighted" and self.phi is None:
            raise ValueError("weighted statistic needs a weight function phi")

    @property
    def effective_kind(self) -> Discrepancy:
        return QUADRATIC if self.form == "quadratic" else self.kind

    @property
    def kind_label(self) -> str:
        return "quadratic" if self.form == "quadratic" else self.kind.label

    @property
    def label(self) -> str:
        if self.form == "quadratic":
            return "quadratic"
        return f"{self.form}-{self.kind_label}"


@dataclass(frozen=True)
class TestReport:
    """Everything a decision consumed, for serialization and diagnostics."""

    raw: float
    m: int
    n: int
    eta_hat: float
    sigma2_hat: float
    standardized: float
    p_value: float
    reject: bool
    alpha_level: float
    nonpd_count: int
    forced_reject: bool


def block_indices(half: int, m: int) -> np.ndarray:
    """1-based frequency indices (t-1)(m+1) + m/2 + 1 for t = 1 .. half//(m+1)."""
    count = half // (m + 1)
    if count < 1:
        raise ValueError(f"span m = {m} leaves no block index below {half}")
    return (m + 1) * np.arange(count) + m // 2 + 1


def raw_statistic(
    fU: SpectralSequence, fR: SpectralSequence, variants, m: int | None = None
) -> list[tuple[float, int]]:
    """Accumulate each variant's discrepancy over its own index set.

    One call evaluates every variant's discrepancy family at every index, as
    traces and log-dets of the pencil, shared by all variants.  Indices where
    either matrix failed the positive-definiteness screen contribute nothing
    and are counted, per variant over its own index set; the decision layer
    turns a nonzero count into a forced rejection.  Returns one (raw value,
    non-PD count) pair per variant, in order; for stacked sequences each is an
    array over the leading axes, and each sample's row is summed on its own.
    """
    if (fU.n, fU.r) != (fR.n, fR.r):
        raise AlignmentMismatch(
            f"sequence mismatch: (n={fU.n}, r={fU.r}) vs (n={fR.n}, r={fR.r})"
        )
    half = fU.half
    ok = fU.pd & fR.pd
    kinds = dict.fromkeys(variant.effective_kind for variant in variants)
    table = _pencil_terms(kinds, *(np.moveaxis(f.matrices, (-2, -1), (0, 1)) for f in (fU, fR)))
    results = []
    for variant in variants:
        if variant.form == "block":
            if m is None:
                raise ValueError("block statistic needs the smoothing span m")
            positions = block_indices(half, m) - 1
        else:
            positions = np.arange(half)
        terms = np.where(ok, table[variant.effective_kind], 0.0)[..., positions]
        if variant.form == "weighted":
            terms = terms * np.array([float(variant.phi(lam)) for lam in fU.frequencies[positions]])
        # a C-ordered copy, so each row is summed in the same order whatever the stack holds
        raw = np.sum(np.ascontiguousarray(terms), axis=-1)
        results.append((raw, positions.size - np.sum(ok[..., positions], axis=-1)))
    return results


def standardize(raw, n: int, m: int, es: EtaSigma, curvature: float, variant: StatisticVariant,
                du: float | None = None, bu: float | None = None):
    """Center and scale a raw statistic to its standard normal limit.

    The hypothesis constants are stated for the unit-curvature discrepancy;
    a family with curvature c shifts eta by c and sigma by c (sigma^2 by
    c^2).  The block form additionally deflates by sqrt(B/D) and uses the
    block count L = floor(n//2 / (m+1)) in place of n.  raw, es.eta and
    es.sigma2 may be arrays over a stack of samples; the result is then the
    array of each sample's value.
    """
    if np.any(np.asarray(es.sigma2) <= 0.0):
        raise DegenerateVariance(f"sigma2 must be positive, got {es.sigma2}")
    if curvature <= 0.0:
        raise ValueError(f"curvature must be positive, got {curvature}")
    eta_k = curvature * es.eta
    sigma_k = curvature * np.sqrt(es.sigma2)
    if variant.form == "block":
        if du is None or bu is None:
            raise ValueError("block standardization needs the kernel constants D and B")
        count = (n // 2) // (m + 1)
        if count < 1:
            raise ValueError(f"span m = {m} leaves no block index for n = {n}")
        deflator = math.sqrt(bu / du)
        value = (m / math.sqrt(count)) * (raw - (2.0 * count / m) * eta_k) / (deflator * sigma_k)
    else:
        value = math.sqrt(m / n) * (raw - (n / m) * eta_k) / sigma_k
    return value if np.ndim(value) else float(value)


@functools.lru_cache
def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Wichura's AS 241, as in statistics.NormalDist)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def _check_alpha(alpha_level: float) -> None:
    if not 0.0 < alpha_level < 1.0:
        raise ValueError(f"alpha_level must lie in (0, 1), got {alpha_level}")


def decide(standardized: float, alpha_level: float, forced: bool) -> tuple[float, bool]:
    """One-sided upper-tail p-value and decision.

    p = 1 - Phi(standardized) through the complementary error function.  A
    forced call (non-PD estimate somewhere) rejects with p = 0
    regardless of the statistic's value.
    """
    _check_alpha(alpha_level)
    if forced:
        return 0.0, True
    p = 0.5 * math.erfc(standardized / math.sqrt(2.0))
    return p, standardized > normal_quantile(1.0 - alpha_level)


def _run_stack(samples, model, kernel: WeightKernel, variants) -> dict[str, dict[str, np.ndarray]]:
    """The test pipeline on an (R, n, r) stack of samples: per variant label, arrays over the stack.

    Each label maps raw, standardized, nonpd (the non-PD count), eta and sigma2
    to an (R,) array.  Each stage runs once on the whole stack, the model's theta
    and closed-form constants included.  Every operation on it is elementwise, a
    per-matrix BLAS or LAPACK call in a restriction, or a per-row FFT or sum, so
    a sample's values have the same bits whatever else the stack holds, and a
    stack raises the errors any of its samples raises alone.

    The hypothesis constants are stated for the flat kernel (C = 1/2, D = 1/3);
    a general kernel rescales them by (2C, 3D), exactly, because the frequency
    integrands of the built-in hypotheses are constants.  For the same reason
    a weight phi multiplies eta by its grid mean and sigma^2 by the mean of
    its square.
    """
    n, r = samples.shape[1:]
    f_unrestricted = smoothed_periodogram(dft(samples), kernel)
    theta = model.estimate_theta(samples)
    f_restricted = model.restricted_estimate(f_unrestricted, theta)
    variants = tuple(variants)
    raws = raw_statistic(f_unrestricted, f_restricted, variants, m=kernel.m)
    closed = model.eta_sigma_closed(r, theta)  # arrays over the stack, or floats shared by it
    results = {}
    for variant, (raw, nonpd) in zip(variants, raws):
        phi = [1.0]
        if variant.form == "weighted":
            phi = np.array([float(variant.phi(lam)) for lam in f_unrestricted.frequencies])
        eta_weight, sigma2_weight = float(np.mean(phi)), float(np.mean(np.square(phi)))
        es = EtaSigma(eta=closed.eta * 2.0 * kernel.cu * eta_weight,
                      sigma2=closed.sigma2 * 3.0 * kernel.du * sigma2_weight)
        standardized = standardize(raw, n, kernel.m, es, variant.effective_kind.curvature, variant,
                                   du=kernel.du, bu=kernel.bu)
        results[variant.label] = {"raw": raw, "standardized": standardized, "nonpd": nonpd,
                                  "eta": np.broadcast_to(es.eta, raw.shape),
                                  "sigma2": np.broadcast_to(es.sigma2, raw.shape)}
    return results


def run_many(
    sample, model, kernel, variants, alpha_level: float = 0.05, cvll_grid=None
) -> dict[str, TestReport]:
    """Shared pipeline for several statistic variants on one sample.

    kernel may be a WeightKernel, an even integer span (flat weights), or
    "cvll" to select the span by cross validation first.  The spectral
    estimates and the pencil terms are computed once and shared by
    all variants.  This is the one-sample call of the stacked pipeline the
    Monte Carlo drivers run: each report is row 0 of its label's arrays,
    plus the p-value and decision.
    """
    arr = validate_sample(sample)
    if arr.shape[0] < 8:
        raise ValueError(f"need at least 8 observations, got {arr.shape[0]}")
    _check_alpha(alpha_level)
    if isinstance(kernel, WeightKernel):
        kern = kernel
    elif kernel == "cvll":
        kern = WeightKernel.flat(cvll_select(arr, grid=cvll_grid)[0])
    else:
        kern = WeightKernel.flat(kernel)
    reports = {}
    for label, row in _run_stack(arr[np.newaxis], model, kern, variants).items():
        standardized, nonpd = float(row["standardized"][0]), int(row["nonpd"][0])
        p_value, reject = decide(standardized, alpha_level, nonpd > 0)
        reports[label] = TestReport(
            raw=float(row["raw"][0]), m=kern.m, n=arr.shape[0], eta_hat=float(row["eta"][0]),
            sigma2_hat=float(row["sigma2"][0]), standardized=standardized, p_value=p_value, reject=reject,
            alpha_level=alpha_level, nonpd_count=nonpd, forced_reject=nonpd > 0,
        )
    return reports


def run_test(
    sample,
    model,
    kernel,
    variant: StatisticVariant,
    alpha_level: float = 0.05,
    cvll_grid=None,
) -> TestReport:
    """End-to-end test of one hypothesis with one statistic variant."""
    reports = run_many(sample, model, kernel, [variant], alpha_level, cvll_grid=cvll_grid)
    return reports[variant.label]
