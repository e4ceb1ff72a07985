"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports spectest.  Each quantity is computed the direct way the
method defines it, with different numerics from the program's batched path:

* the DFT is an explicit sum over t = 1..n, not an FFT;
* the smoothed periodogram is a circular window sum over the m + 1 offsets;
* relative eigenvalues come from scipy.linalg.eigh(a, b), one frequency at a
  time;
* the graphical completion of a chain uses the decomposable closed form
  (clique inverses minus separator inverses), not cyclic covariance selection;
* the CVLL curve is built from prefix sums of the periodogram, with slogdet
  and solve.

The statistic forms, discrepancies and closed-form null constants restate the
method for the flat kernel (C = 1/2, D = 1/3, B = 1).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.special import ndtri

CURVATURE = {"kl": 1.0, "j": 2.0, "quadratic": 1.0}
FLAT_B_OVER_D = 3.0
CRITICAL = float(ndtri(0.95))


def dft(z: np.ndarray) -> np.ndarray:
    """w[j] = (2 pi n)^(-1/2) sum_{t=1}^{n} z[t] exp(i t 2 pi j / n), j = 0..n-1."""
    n = z.shape[0]
    j = np.arange(n)[:, np.newaxis]
    t = np.arange(1, n + 1)[np.newaxis, :]
    basis = np.exp(2j * math.pi * ((j * t) % n) / n)
    return basis @ z / math.sqrt(2.0 * math.pi * n)


def periodograms(w: np.ndarray) -> np.ndarray:
    """I[j] = w[j] w[j]^H for every j."""
    return w[:, :, np.newaxis] * np.conj(w)[:, np.newaxis, :]


def smoothed(w: np.ndarray, m: int) -> np.ndarray:
    """Flat-window estimate at t = 1..n//2: mean of I[(t + k) mod n], |k| <= m/2."""
    n = w.shape[0]
    per = periodograms(w)
    t = np.arange(1, n // 2 + 1)
    total = np.zeros((t.size,) + per.shape[1:], dtype=complex)
    for k in range(-(m // 2), m // 2 + 1):
        total += per[(t + k) % n]
    return total / (m + 1)


def independence_null(f: np.ndarray) -> np.ndarray:
    g = np.zeros_like(f)
    idx = np.arange(f.shape[-1])
    g[:, idx, idx] = f[:, idx, idx].real
    return g


def separable_null(f: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    shape = np.mean(np.diagonal(f, axis1=1, axis2=2).real / np.diag(sigma), axis=1)
    return shape[:, np.newaxis, np.newaxis] * sigma


def chain_completion(f: np.ndarray) -> np.ndarray:
    """Completion of f for the chain 1-2, 2-3, ..., (r-1)-r, per frequency.

    For a decomposable graph the completed inverse is the sum of the
    zero-padded clique inverses minus the zero-padded separator inverses.
    """
    r = f.shape[-1]
    k = np.zeros_like(f)
    for a in range(r - 1):
        k[:, a : a + 2, a : a + 2] += np.linalg.inv(f[:, a : a + 2, a : a + 2])
    for a in range(1, r - 1):
        k[:, a, a] -= 1.0 / f[:, a, a]
    return np.linalg.inv(k)


def null_constants(hypothesis: str, r: int, sigma=None, absent: int = 0) -> tuple[float, float]:
    """Closed-form (eta, sigma^2) for the unit-curvature discrepancy, flat kernel."""
    if hypothesis == "independence":
        return (r * r - r) / 4.0, (r * r - r) / 6.0
    if hypothesis == "separable":
        d = np.diag(sigma)
        tau = float(np.sum(sigma**2 / np.outer(d, d)))
        return (tau / r - 2.0 + r * r) / 4.0, (tau**2 / r**2 - 2.0 + r * r) / 6.0
    if hypothesis == "graphical":
        return absent / 2.0, absent / 3.0
    raise ValueError(f"unknown hypothesis {hypothesis!r}")


def relative_eigenvalues(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.array([scipy.linalg.eigh(a, b, eigvals_only=True) for a, b in zip(f, g)])


def terms(kind: str, lam: np.ndarray) -> np.ndarray:
    if kind == "kl":
        return np.sum(lam - np.log(lam) - 1.0, axis=1)
    if kind == "j":
        return np.sum(lam + 1.0 / lam - 2.0, axis=1)
    if kind == "quadratic":
        return 0.5 * np.sum((lam - 1.0) ** 2, axis=1)
    raise ValueError(f"unknown discrepancy {kind!r}")


def statistic(lam: np.ndarray, form: str, kind: str, n: int, m: int,
              eta: float, sigma2: float) -> dict:
    """Raw and standardized statistic, p-value and decision at level 0.05.

    lam holds the relative eigenvalues at t = 1..n//2, one row per frequency.
    """
    kind = "quadratic" if form == "quadratic" else kind
    c = CURVATURE[kind]
    values = terms(kind, lam)
    if form == "block":
        count = (n // 2) // (m + 1)
        raw = float(np.sum(values[(m + 1) * np.arange(count) + m // 2]))
        centre = (2.0 * count / m) * c * eta
        scale = math.sqrt(FLAT_B_OVER_D) * c * math.sqrt(sigma2) * math.sqrt(count) / m
    else:
        raw = float(np.sum(values))
        centre = (n / m) * c * eta
        scale = c * math.sqrt(sigma2) * math.sqrt(n / m)
    standardized = (raw - centre) / scale
    return {
        "raw": raw,
        "standardized": standardized,
        "eta_hat": eta,
        "sigma2_hat": sigma2,
        "p_value": 0.5 * math.erfc(standardized / math.sqrt(2.0)),
        "reject": standardized > CRITICAL,
    }


def cvll_grid(n: int, r: int) -> list[int]:
    """Even spans m with max(r, ceil(n^0.4)) <= m <= floor(n^0.8) and m < n/2."""
    lo = max(r, math.ceil(n**0.4 - 1e-9), 2)
    hi = min(math.floor(n**0.8 + 1e-9), (n - 1) // 2)
    return [m for m in range(lo + lo % 2, hi + 1, 2)]


def cvll_curve(w: np.ndarray, grid) -> np.ndarray:
    """Leave-one-out Whittle score per span; +inf where a leave-out sum is singular.

    score(m) = (1/n) sum_{j=1}^{n//2} [w_j^H G_j^{-1} w_j + log det G_j], with
    G_j the mean of I[j + k] over 0 < |k| <= m/2.
    """
    n = w.shape[0]
    per = periodograms(w)
    extended = np.concatenate([per, per, per])
    prefix = np.concatenate([np.zeros((1,) + per.shape[1:], dtype=complex), np.cumsum(extended, axis=0)])
    t = np.arange(1, n // 2 + 1)
    wt = w[t]
    scores = np.empty(len(grid))
    for i, m in enumerate(grid):
        h = m // 2
        window = prefix[n + t + h + 1] - prefix[n + t - h]
        g = (window - per[t]) / m
        g = (g + np.conj(np.swapaxes(g, 1, 2))) / 2.0
        sign, logdet = np.linalg.slogdet(g)
        if np.any(np.abs(sign - 1.0) > 1e-8) or not np.all(np.isfinite(logdet)):
            scores[i] = math.inf
            continue
        solved = np.linalg.solve(g, wt[:, :, np.newaxis])[:, :, 0]
        quad = np.real(np.sum(np.conj(wt) * solved, axis=1))
        scores[i] = (np.sum(quad) + np.sum(logdet)) / n
    return scores


def null_statistics(z: np.ndarray, hypothesis: str, m: int, variants) -> dict:
    """Reference statistics on sample z for each (form, kind) in variants."""
    n, r = z.shape
    f = smoothed(dft(z), m)
    sigma = None
    if hypothesis == "independence":
        g = independence_null(f)
    elif hypothesis == "separable":
        sigma = z.T @ z / n
        g = separable_null(f, sigma)
    else:
        raise ValueError(f"no reference restriction for {hypothesis!r}")
    eta, sigma2 = null_constants(hypothesis, r, sigma=sigma)
    lam = relative_eigenvalues(f, g)
    return {v: statistic(lam, v[0], v[1], n, m, eta, sigma2) for v in variants}
