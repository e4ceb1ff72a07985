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

run_many tests one sample; a Monte Carlo block runs the same driver on many.
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


def raw_statistic(fU: SpectralSequence, fR: SpectralSequence, variants, m: int) -> list[tuple[float, int]]:
    """Accumulate each variant's discrepancy over its own index set; the block form's is fixed by the span m.

    One call evaluates every variant's discrepancy family at every index, as
    traces and log-dets of the pencil, shared by all variants.  Indices where
    either matrix failed the positive-definiteness screen contribute nothing
    and are counted, per variant over its own index set; the decision layer
    turns a nonzero count into a forced rejection.  Returns one (raw value,
    non-PD count) pair per variant, in order; for stacked sequences each is an
    array over the leading axes, and each sample's row is summed on its own.
    """
    if (fU.n, fU.r) != (fR.n, fR.r):
        raise AlignmentMismatch(f"sequence mismatch: (n={fU.n}, r={fU.r}) vs (n={fR.n}, r={fR.r})")
    half = fU.half
    ok = fU.pd & fR.pd
    kinds = dict.fromkeys(variant.effective_kind for variant in variants)
    table = _pencil_terms(kinds, *(np.moveaxis(f.matrices, (-2, -1), (0, 1)) for f in (fU, fR)))
    results = []
    for variant in variants:
        positions = block_indices(half, m) - 1 if variant.form == "block" else np.arange(half)
        terms = np.where(ok, table[variant.effective_kind], 0.0)[..., positions]
        if variant.form == "weighted":
            terms = terms * np.array([float(variant.phi(lam)) for lam in fU.frequencies[positions]])
        # a C-ordered copy, so each row is summed in the same order whatever the stack holds
        raw = np.sum(np.ascontiguousarray(terms), axis=-1)
        results.append((raw, positions.size - np.sum(ok[..., positions], axis=-1)))
    return results


def standardize(raw, n: int, kernel: WeightKernel, es: EtaSigma, variant: StatisticVariant):
    """Center and scale a raw statistic to its standard normal limit.

    The hypothesis constants are stated for the unit-curvature discrepancy;
    the variant's discrepancy, of curvature c, shifts eta by c and sigma by c
    (sigma^2 by c^2).  The block form additionally deflates by sqrt(B/D),
    the kernel's constants, and uses the block count L = floor(n//2 / (m+1))
    of block_indices in place of n, with m the kernel's span.  raw, es.eta
    and es.sigma2 may be arrays over a stack of samples; the result is then
    the array of each sample's value.
    """
    if np.any(np.asarray(es.sigma2) <= 0.0):
        raise DegenerateVariance(f"sigma2 must be positive, got {es.sigma2}")
    m, curvature = kernel.m, variant.effective_kind.curvature
    eta_k = curvature * es.eta
    sigma_k = curvature * np.sqrt(es.sigma2)
    if variant.form == "block":
        count = block_indices(n // 2, m).size
        deflator = math.sqrt(kernel.bu / kernel.du)
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


def _equilibrate(samples: np.ndarray) -> np.ndarray:
    """Scale each column of each sample by the power of two that brings its largest magnitude into [0.5, 1).

    Every statistic is invariant to it and it is exact, so the PD screens and the separable constants stop
    depending on the data's units while the statistics keep their bits.  An all-zero column is left alone.
    """
    top = np.max(np.abs(np.ascontiguousarray(np.swapaxes(samples, -1, -2))), axis=-1)  # contiguous: ~10x faster
    return np.ldexp(samples, -np.frexp(top)[1][..., np.newaxis, :])


def _run_stack(samples, model, kernel: WeightKernel, variants) -> dict[str, dict[str, np.ndarray]]:
    """The test pipeline on an equilibrated (R, n, r) stack of samples: per variant label, arrays over the stack.

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
    raws = raw_statistic(f_unrestricted, f_restricted, variants, kernel.m)
    closed = model.eta_sigma_closed(r, theta)  # arrays over the stack, or floats shared by it
    results = {}
    for variant, (raw, nonpd) in zip(variants, raws):
        phi = [1.0]
        if variant.form == "weighted":
            phi = np.array([float(variant.phi(lam)) for lam in f_unrestricted.frequencies])
        eta_weight, sigma2_weight = float(np.mean(phi)), float(np.mean(np.square(phi)))
        es = EtaSigma(eta=closed.eta * 2.0 * kernel.cu * eta_weight,
                      sigma2=closed.sigma2 * 3.0 * kernel.du * sigma2_weight)
        results[variant.label] = {"raw": raw, "standardized": standardize(raw, n, kernel, es, variant),
                                  "nonpd": nonpd, "eta": np.broadcast_to(es.eta, raw.shape),
                                  "sigma2": np.broadcast_to(es.sigma2, raw.shape)}
    return results


def _run_samples(samples, model, kernel, variants, size: int) -> tuple[np.ndarray, dict[str, dict[str, np.ndarray]]]:
    """Each sample's span and, per variant label, _run_stack's arrays over an (R, n, r) stack, in sample order.

    The stack is equilibrated once, size samples at a time.  kernel is a WeightKernel, an even integer
    span or "cvll", which selects the spans of each size samples in one cvll_select call.  The samples
    that share a span then run through _run_stack together, size at a time.
    """
    # by chunks: one pass over a whole Monte Carlo block made the pipeline after it slower
    samples = np.concatenate([_equilibrate(samples[at : at + size]) for at in range(0, len(samples), size)])
    if kernel == "cvll":  # a WeightKernel compares by identity
        spans = np.concatenate([cvll_select(samples[at : at + size])[0] for at in range(0, len(samples), size)])
    else:
        kernel = kernel if isinstance(kernel, WeightKernel) else WeightKernel.flat(kernel)
        spans = np.full(len(samples), kernel.m)
    out = {}
    for span in np.unique(spans):
        kern = WeightKernel.flat(int(span)) if kernel == "cvll" else kernel
        group = np.flatnonzero(spans == span)
        for chunk in (group[at : at + size] for at in range(0, len(group), size)):
            for label, row in _run_stack(samples[chunk], model, kern, variants).items():
                for key, values in row.items():
                    out.setdefault(label, {}).setdefault(key, np.empty(len(samples), values.dtype))[chunk] = values
    return spans, out


def run_many(sample, model, kernel, variants, alpha_level: float = 0.05) -> dict[str, TestReport]:
    """Shared pipeline for several statistic variants on one sample.

    kernel may be a WeightKernel, an even integer span (flat weights), or "cvll" to select the
    span by cross validation first.  The spectral estimates and the pencil terms are computed once
    and shared by all variants.  This is the one-sample call of _run_samples, which the Monte Carlo
    blocks call too: each report is row 0 of its label's arrays, plus the p-value and decision.
    """
    arr = validate_sample(sample)
    if arr.shape[0] < 8:
        raise ValueError(f"need at least 8 observations, got {arr.shape[0]}")
    _check_alpha(alpha_level)
    spans, rows = _run_samples(arr[np.newaxis], model, kernel, variants, 1)
    reports = {}
    for label, row in rows.items():
        standardized, nonpd = float(row["standardized"][0]), int(row["nonpd"][0])
        p_value, reject = decide(standardized, alpha_level, nonpd > 0)
        reports[label] = TestReport(
            raw=float(row["raw"][0]), m=int(spans[0]), n=arr.shape[0], eta_hat=float(row["eta"][0]),
            sigma2_hat=float(row["sigma2"][0]), standardized=standardized, p_value=p_value, reject=reject,
            alpha_level=alpha_level, nonpd_count=nonpd, forced_reject=nonpd > 0,
        )
    return reports


def run_test(sample, model, kernel, variant: StatisticVariant, alpha_level: float = 0.05) -> TestReport:
    """End-to-end test of one hypothesis with one statistic variant."""
    return run_many(sample, model, kernel, [variant], alpha_level)[variant.label]
