"""Spectral density estimation on the Fourier grid.

The estimators here all live on the discrete frequencies lambda_j = 2*pi*j/n.
The transform, a real-input FFT on the half grid mirrored into exact conjugates,
keeps the 1/sqrt(2*pi*n) normalization so that periodogram ordinates are
unbiased for the spectral density matrix up to smoothing bias, and every indexed
quantity is treated as periodic in j with period n, which for real data is the
same as reflecting conjugate-transposed ordinates through zero.  Smoothing uses
an even positive weight function u on [-1/2, 1/2] sampled at j/m; bandwidth
selection minimizes a leave-one-out Whittle-type cross validation score.  Both
read the periodogram as real lower-triangle planes, frequency last.  Flat
smoothing sums each window from two within-block sums, at a cost that does not
grow with m; other weights and the CVLL running sum add pairs I[t - k] + I[t + k].
Smoothing mirrors the planes into an exactly Hermitian frequency-last stack, whose
sequence holds a frequency-first view of it; CVLL writes them, for one sample or a
stack, into the packed lower triangle of a bordered block of spans and eliminates it in place.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BandwidthTooLarge, EmptyGrid, NoUsableSpan
from .hermitian import _check_hermitian, _eliminate, _lower, as_hermitian, is_positive_definite

TWO_PI = 2.0 * math.pi
QUADRATURE_PANELS = 2048
# Packed complex elements (r + 1)(r + 2)/2 * spans * samples * n//2 per bordered CVLL block, bounding its memory:
# 16 spans, 1.25 MiB, at n = 1001, r = 3, where 12-24 of 4-32 spans ran alike and 4 or 32 about 25% slower.
_CVLL_BLOCK_ELEMENTS = 80_000


def validate_sample(values) -> np.ndarray:
    """Coerce to an (n, r) float array of finite observations."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise ValueError(f"sample must be 2-d (n, r), got {arr.ndim}-d")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"sample must be nonempty, got shape {arr.shape}")
    return _check_finite(arr)


def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class FourierFrame:
    """Discrete Fourier transform of a sample on the full frequency grid.

    w[j, a] = (2*pi*n)^(-1/2) * sum_{t=1}^{n} Z[t, a] * exp(i*t*lambda_j), from a real-input FFT
    for j = 0 .. n//2 with real DC and Nyquist entries, and exact conjugates w[n - j] = conj(w[j])
    above.  A stack of samples gives w of shape (R, n, r).
    """

    w: np.ndarray
    n: int
    r: int


def dft(values) -> FourierFrame:
    """Transform an (n, r) real sample, or an (R, n, r) stack of finite ones, to its DFT frame."""
    arr = _check_finite(np.asarray(values, dtype=float)) if np.ndim(values) == 3 else validate_sample(values)
    n, r = arr.shape[-2:]
    # sum_{t=1}^{n} Z_t e^{i t lambda_j} = e^{i lambda_j} * conj(rfft(Z)[j]) for real Z and j <= n//2
    spectrum = np.conj(np.fft.rfft(arr, axis=-2))
    phase = np.exp(2j * math.pi * np.arange(n // 2 + 1) / n)[:, np.newaxis]
    w = np.empty(arr.shape, dtype=complex)
    w[..., : n // 2 + 1, :] = phase * spectrum * (1.0 / math.sqrt(TWO_PI * n))  # the bits of complex / sqrt
    w[..., 0, :] = w[..., 0, :].real
    if n % 2 == 0:
        w[..., n // 2, :] = w[..., n // 2, :].real
    upper = np.arange(1, (n + 1) // 2)
    w[..., n - upper, :] = np.conj(w[..., upper, :])
    return FourierFrame(w=w, n=n, r=r)


def _periodogram_planes(frame: FourierFrame, reach: int, block: int = 1) -> np.ndarray:
    """Real lower-triangle planes of I[j] = w[j] w[j]^H for j = 1 - reach .. n//2 + reach (mod n).

    A contiguous (r^2, ..., J) float array, frequency last: Re I_ab for the pairs a >= b in
    np.tril_indices order, then Im I_ab for a > b.  With w = x + iy they are x_a x_b + y_a y_b
    and y_a x_b - x_a y_b in real arithmetic, as a complex multiply may fuse multiply-adds;
    Im I_aa is exactly zero.  Zeros pad J up to a multiple of block.
    """
    half, r = frame.n // 2, frame.r
    count = half + 2 * reach
    w = np.moveaxis(frame.w[..., np.arange(1 - reach, half + reach + 1) % frame.n, :], -1, 0)
    x, y = w.real, w.imag
    (a, c), (b, d) = (np.split(index, [r * (r + 1) // 2]) for index in _plane_entries(r)[:2])
    planes = np.zeros((r * r,) + w.shape[1:-1] + (-(-count // block) * block,))
    real, imag = planes[: a.size, ..., :count], planes[a.size :, ..., :count]
    np.multiply(x[a], x[b], out=real)
    real += y[a] * y[b]
    np.multiply(y[c], x[d], out=imag)
    imag -= x[c] * y[d]
    return planes


@functools.lru_cache
def _plane_entries(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, part) of each plane of _periodogram_planes; part 0 is real, 1 imaginary."""
    (a, b), (c, d) = np.tril_indices(r), np.tril_indices(r, -1)
    return np.concatenate([a, c]), np.concatenate([b, d]), np.repeat([0, 1], [a.size, c.size])


def _write_planes(out: np.ndarray, planes: np.ndarray) -> None:
    """Write the planes and their conjugates into a frequency-last complex (r, r, ...) stack, in one
    gathered assignment each, so the stack is exactly Hermitian."""
    r = math.isqrt(len(planes))
    rows, cols, part = _plane_entries(r)
    parts = out.view(float).reshape(out.shape + (2,))
    parts[rows, cols, ..., part] = planes
    tri = r * (r + 1) // 2
    parts[cols[:tri], rows[:tri], ..., 0], parts[cols[tri:], rows[tri:], ..., 1] = planes[:tri], -planes[tri:]


def _pair_sums(planes: np.ndarray, reach: int):
    """Yield planes[t - k] + planes[t + k] for k = 1 .. reach and t = reach .. J - reach - 1, in one buffer."""
    half = planes.shape[-1] - 2 * reach
    pair = np.empty(planes.shape[:-1] + (half,))
    for k in range(1, reach + 1):
        yield np.add(planes[..., reach - k : reach - k + half], planes[..., reach + k : reach + k + half], out=pair)


def _window_sums(planes: np.ndarray, m: int, count: int) -> np.ndarray:
    """planes[s] + planes[s + 1] + ... + planes[s + m] for s = 0 .. count - 1, from two-block sums.

    The frequency axis is cut into blocks of m + 1.  A window that starts a block is that block's
    suffix sum; any other is suffix[s] + prefix[s + m] over two blocks (van Herk 1992; Gil &
    Werman 1993).  Every term is added and none subtracted, so the sums keep the direct sum's
    accuracy at any dynamic range, at a cost that does not grow with m.
    """
    blocks = planes.reshape(planes.shape[:-1] + (-1, m + 1))
    prefix = np.cumsum(blocks, axis=-1).reshape(planes.shape)
    suffix = np.empty_like(planes)
    np.cumsum(blocks[..., ::-1], axis=-1, out=suffix.reshape(blocks.shape)[..., ::-1])
    sums = suffix[..., :count] + prefix[..., m : m + count]
    sums[..., :: m + 1] = suffix[..., : count : m + 1]
    return sums


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule for samples y on a uniform grid x with an even number of panels."""
    h = (x[-1] - x[0]) / (x.size - 1)
    return float(np.sum(h / 3.0 * (y[:-2:2] + 4.0 * y[1::2] + y[2::2])))


def kernel_constants(u) -> tuple[float, float, float]:
    """Quadrature values of the three weight-function constants.

    For a positive even weight u on [-1/2, 1/2] (zero outside), returns

        C = (1/2) int u^2 / (int u)^2
        D = (1/2) intintint u(x) u(y) u(x+z) u(y+z) dz dx dy / (int u)^4
        B = (int u^2)^2 / int u^4

    The triple integral collapses through the autocorrelation
    rho(z) = int u(x) u(x+z) dx to D = int_0^1 rho(z)^2 dz / (int u)^4,
    which keeps every quadrature panel smooth even when u does not vanish
    at the support edges.  Every integral is composite Simpson on a uniform
    grid of QUADRATURE_PANELS (2048) panels.  u must accept ndarray arguments.
    """
    x = np.linspace(-0.5, 0.5, QUADRATURE_PANELS + 1)
    ux = _eval_weight(u, x)
    if np.min(ux) <= 0.0:
        raise ValueError("weight function must be strictly positive on [-1/2, 1/2]")
    norm, second, fourth = (_simpson(ux**p, x) for p in (1, 2, 4))
    z = np.linspace(0.0, 1.0, QUADRATURE_PANELS + 1)
    rho = np.empty_like(z)
    for k, zk in enumerate(z):
        xs = np.linspace(-0.5, 0.5 - zk, QUADRATURE_PANELS + 1)
        rho[k] = _simpson(_eval_weight(u, xs) * _eval_weight(u, xs + zk), xs)
    return 0.5 * second / norm**2, _simpson(rho**2, z) / norm**4, second**2 / fourth


def _check_span(m, r: int | None = None, n: int | None = None, centre: bool = False) -> int:
    """Check a span and return it as an int: integral, even, >= 2, and when given, m + centre >= r, m < n/2."""
    if not isinstance(m, numbers.Integral):
        raise ValueError(f"span m must be an integer, got {m!r}")
    if m < 2 or m % 2 != 0:
        raise ValueError(f"span m must be even and >= 2, got {m}")
    if r is not None and m + centre < r:
        need = "; need m + 1 >= r" if centre else ""
        raise ValueError(f"span m = {m} too small for dimension r = {r}{need}")
    if n is not None and 2 * m >= n:
        raise BandwidthTooLarge(f"span m = {m} must satisfy m < n/2 = {n / 2}")
    return int(m)


def _eval_weight(u, x: np.ndarray) -> np.ndarray:
    vals = np.asarray(u(x), dtype=float)
    try:
        return np.broadcast_to(vals, x.shape)  # a scalar output is a constant weight
    except ValueError as exc:
        raise ValueError(f"weight function must map an array to one of its shape, got {vals.shape} "
                         f"for {x.shape}") from exc


@dataclass(frozen=True, eq=False)
class WeightKernel:
    """Smoothing weights w_j = u(j/m), j = -m/2 .. m/2, plus the constants of u.

    The span m and the weight sum wstar are read from the weights.
    """

    weights: np.ndarray
    cu: float
    du: float
    bu: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "weights", np.asarray(self.weights).astype(float, casting="same_kind"))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"weights must be real numbers: {exc}") from None
        if self.weights.ndim != 1:
            raise ValueError(f"weights must be 1-d, got shape {self.weights.shape}")
        _check_span(self.m)
        if not np.all(np.isfinite(self.weights) & (self.weights > 0.0)):
            raise ValueError("weights must be finite and strictly positive")
        if np.max(np.abs(self.weights - self.weights[::-1])) > 1e-12 * np.max(self.weights):
            raise ValueError("weights must be symmetric about 0")
        if min(self.cu, self.du, self.bu) <= 0.0:
            raise ValueError("kernel constants must be positive")
        if 2.0 * self.du / self.bu > 1.0 + 1e-9:
            raise ValueError("constants violate 2D/B <= 1; weight function is invalid")

    @property
    def m(self) -> int:
        return len(self.weights) - 1

    @property
    def wstar(self) -> float:
        return float(np.sum(self.weights))

    @classmethod
    def from_function(cls, u, m: int) -> "WeightKernel":
        m = _check_span(m)
        offsets = np.arange(-(m // 2), m // 2 + 1)
        return cls(_eval_weight(u, offsets / m), *kernel_constants(u))

    @classmethod
    def flat(cls, m: int) -> "WeightKernel":
        """Unweighted moving average over m + 1 ordinates; C = 1/2, D = 1/3, B = 1.

        The constants are exact for the flat weight function, so no
        quadrature is involved.
        """
        return cls(np.ones(_check_span(m) + 1), cu=0.5, du=1.0 / 3.0, bu=1.0)


@dataclass(frozen=True, eq=False)
class SpectralSequence:
    """Spectral matrices at lambda_t = 2*pi*t/n for t = 1 .. n//2.

    matrices[..., t - 1, :, :] holds the value at index t, and pd[..., t - 1]
    the positive-definiteness screen's verdict on it.  Leading axes, if any,
    index a stack of samples.  kind is "unrestricted" or "restricted".  The
    constructor checks its input, Hermitian to 1e-10, and takes pd as given;
    from_matrices takes the Hermitian part after the same check and screens
    it.  The pipeline's own estimates are exactly Hermitian by construction and
    skip both; their matrices view a C-contiguous frequency-last (r, r, ..., n//2) array.
    """

    kind: str
    n: int
    r: int
    matrices: np.ndarray
    pd: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.kind not in ("unrestricted", "restricted"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        half = self.n // 2
        if self.matrices.shape[-3:] != (half, self.r, self.r):
            raise ValueError(
                f"matrices must have shape (..., {half}, {self.r}, {self.r}), "
                f"got {self.matrices.shape}"
            )
        if self.pd.shape != self.matrices.shape[:-2]:
            raise ValueError("pd flags must align with the frequency grid")
        _check_hermitian(self.matrices, tol=1e-10)

    @property
    def half(self) -> int:
        return self.n // 2

    @property
    def frequencies(self) -> np.ndarray:
        return TWO_PI * np.arange(1, self.half + 1) / self.n

    @classmethod
    def from_matrices(cls, kind, n, matrices) -> "SpectralSequence":
        matrices = as_hermitian(np.asarray(matrices, dtype=complex), tol=1e-10)
        return cls(kind=kind, n=n, r=matrices.shape[-1], matrices=matrices, pd=is_positive_definite(matrices))

    @classmethod
    def _trusted(cls, kind, n, matrices, pd) -> "SpectralSequence":
        """A sequence the pipeline built exactly Hermitian and screened itself, stored unchecked."""
        seq = object.__new__(cls)
        seq.__dict__.update(kind=kind, n=n, r=matrices.shape[-1], matrices=matrices, pd=pd)
        return seq


def smoothed_periodogram(sample, kernel: WeightKernel) -> SpectralSequence:
    """Kernel-smoothed periodogram on the half grid t = 1 .. n//2.

    fhat[t] = (1/wstar) * sum_{j=-m/2}^{m/2} w_j I[(t + j) mod n].

    Requires m < n/2 (BandwidthTooLarge otherwise) and m + 1 >= r so the
    estimate has full rank for generic data.  A stack of samples gives a
    stacked sequence.
    """
    frame = sample if isinstance(sample, FourierFrame) else dft(sample)
    n, r, m = frame.n, frame.r, kernel.m
    _check_span(m, r=r, n=n, centre=True)
    half, h = n // 2, m // 2
    if np.all(kernel.weights == 1.0):
        total = _window_sums(_periodogram_planes(frame, h, block=m + 1), m, half)
    else:
        planes = _periodogram_planes(frame, h)
        total = kernel.weights[h] * planes[..., h : h + half]
        # the weights are symmetric, so w_{-k} = w_k
        for weight, pair in zip(kernel.weights[h + 1 :], _pair_sums(planes, h)):
            total += np.multiply(weight, pair, out=pair)
    total *= 1.0 / kernel.wstar  # the bits of a complex sum divided by wstar
    stack = np.zeros((r, r) + total.shape[1:], dtype=complex)
    _write_planes(stack, total)
    smoothed = np.moveaxis(stack, (0, 1), (-2, -1))  # frequency-first view of a frequency-last array
    return SpectralSequence._trusted("unrestricted", n, smoothed, _eliminate(_lower(stack), r)[0])


def _cvll_curve(frame: FourierFrame, grid: list[int]) -> np.ndarray:
    """Scores for an ascending list of checked spans, from one running sum: (len(grid),) for one
    sample and (len(grid), R) for a stack, each sample's scores the bits of its own call.

    The leave-out sum S[t] = sum_{0 < |k| <= h} I[t + k] only gains PSD terms as h grows, so the
    grid costs one O(n r^2) pass.  Per span, eliminating G = S / m in the bordered matrix
    [[G, w], [w^H, 0]] screens G, gives log det G from the pivots and leaves -w^H G^{-1} w in the
    corner.  Spans are written into the packed lower triangle of a bordered block, whose upper
    one is never stored or read, and eliminated in place, at most _CVLL_BLOCK_ELEMENTS at a time.
    """
    n, r, half = frame.n, frame.r, frame.n // 2
    reach = grid[-1] // 2
    planes = _periodogram_planes(frame, reach)
    pairs = _pair_sums(planes, reach)
    total = np.zeros(planes.shape[:-1] + (half,))  # the centre I[t] is left out
    packed = np.zeros((r + 1, r + 1), dtype=int)
    packed[np.triu_indices(r + 1)[::-1]] = np.arange((r + 1) * (r + 2) // 2)  # where (i, j), j <= i, sits
    rows, cols, part = _plane_entries(r)
    size = max(1, min(len(grid), _CVLL_BLOCK_ELEMENTS // (packed[r, r] + 1) // total[0].size))
    parts = np.zeros((packed[r, r] + 1, size) + total.shape[1:] + (2,))  # the bordered block's re and im parts
    border = np.moveaxis(np.conj(frame.w[..., 1 : half + 1, :]), -1, 0)[:, np.newaxis]
    h, scores = 0, np.empty((len(grid),) + total.shape[1:-1])
    for start in range(0, len(grid), size):
        block = grid[start : start + size]
        for slot, m in enumerate(block):
            for _ in range(h + 1, m // 2 + 1):
                total += next(pairs)
            h = m // 2
            parts[packed[rows, cols], slot, ..., part] = total * (1.0 / m)  # the bits of a complex total / m
        work = parts[:, : len(block)].view(complex)[..., 0]  # elimination overwrites border and corner
        work[packed[r, :r]], work[-1] = border, 0.0
        ok, logdet = _eliminate(work, r)
        with np.errstate(invalid="ignore"):  # a failed span's log det may be non-finite
            fits = (np.sum(logdet, axis=-1) - np.sum(work[-1].real, axis=-1)) / n
        # any frequency failing the screen sends the score to +inf
        scores[start : start + size] = np.where(ok.all(axis=-1), fits, math.inf)
    return scores


def cvll_score(sample, m: int) -> float:
    """Leave-one-out Whittle cross validation score for span m.

    (1/n) * sum_{j=1}^{n//2} [ tr(I[j] G[j]^{-1}) + log det G[j] ]

    where G[j], the leave-out estimate at j, is the mean of the m periodogram
    ordinates around j without I[j] itself.  Any index whose leave-out
    estimate fails the positive-definiteness screen sends the score to +inf.
    It is the one-span case of the curve function cvll_select runs, for one (n, r) sample only.
    """
    shape = sample.w.shape if isinstance(sample, FourierFrame) else np.shape(sample)
    if len(shape) == 3:
        raise ValueError(f"cvll_score scores one (n, r) sample, got a stack of shape {shape}; "
                         f"cvll_select(stack, grid=[m]) scores each sample of a stack")
    frame = sample if isinstance(sample, FourierFrame) else dft(sample)
    return float(_cvll_curve(frame, [_check_span(m, r=frame.r, n=frame.n)])[0])


def default_cvll_grid(n: int, r: int) -> list[int]:
    """All even spans m with max(r, ceil(n^0.4)) <= m <= floor(n^0.8), m < n/2."""
    lo = max(r, int(math.ceil(n**0.4 - 1e-9)), 2)
    hi = min(int(math.floor(n**0.8 + 1e-9)), (n - 1) // 2)
    start = lo + (lo % 2)
    grid = list(range(start, hi + 1, 2))
    if not grid:
        raise EmptyGrid(f"no even candidate spans in [{lo}, {hi}] for n = {n}, r = {r}")
    return grid


def cvll_select(sample, grid=None):
    """Pick the span minimizing the cross validation score; ties go small.

    Returns (best span, [(span, score), ...] over the full grid) for one sample, and for an
    (R, n, r) stack or its frame the (R,) best spans and (len(grid), R) scores, each sample's the
    bits of its own call.  Raises NoUsableSpan when every span of some sample scores +inf.
    """
    frame = sample if isinstance(sample, FourierFrame) else dft(sample)
    if grid is None:
        grid = default_cvll_grid(frame.n, frame.r)
    grid = sorted(_check_span(m, r=frame.r, n=frame.n) for m in grid)
    if not grid:
        raise EmptyGrid("candidate grid is empty")
    scores = _cvll_curve(frame, grid)
    if np.any(np.min(scores, axis=0) == math.inf):
        raise NoUsableSpan(
            f"no span in the grid {grid[0]}..{grid[-1]} gives a positive definite "
            "leave-out estimate at every frequency"
        )
    # argmin keeps the first of equal scores, so ties go to the smaller span
    best = np.array(grid)[np.argmin(scores, axis=0)]
    return (int(best), list(zip(grid, scores.tolist()))) if scores.ndim == 1 else (best, scores)
