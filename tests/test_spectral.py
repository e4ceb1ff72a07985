"""Tests for the DFT frame, periodogram, smoothing, and bandwidth selection."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

import spectest.spectral
from oracles import bordered_cvll_curve, leave_out, logdet, periodogram, smoothed_by_multiply
from spectest.errors import BandwidthTooLarge, EmptyGrid, NoUsableSpan
from spectest.hermitian import inverse_pd, is_positive_definite
from spectest.spectral import (
    FourierFrame,
    SpectralSequence,
    WeightKernel,
    _cvll_curve,
    _simpson,
    cvll_score,
    cvll_select,
    default_cvll_grid,
    dft,
    kernel_constants,
    smoothed_periodogram,
    validate_sample,
)

TWO_PI = 2.0 * math.pi


def flat_u(x):
    return np.ones_like(np.asarray(x, dtype=float))


def test_dft_constant_series_frozen_value():
    frame = dft(np.ones((4, 1)))
    # sum of four unit terms, scaled by (2*pi*n)^(-1/2)
    assert frame.w[0, 0] == pytest.approx(4.0 / math.sqrt(8.0 * math.pi), abs=1e-14)
    assert np.allclose(frame.w[1:], 0.0, atol=1e-14)


def test_dft_impulse_gives_flat_periodogram():
    z = np.zeros((8, 1))
    z[0, 0] = 1.0
    frame = dft(z)
    for j in range(8):
        val = periodogram(frame, j)[0, 0]
        assert val == pytest.approx(1.0 / (TWO_PI * 8.0), abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(8, 300), st.just(1001)),
    r=st.integers(1, 4),
    count=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=8, r=1, count=None, seed=0)
@example(n=9, r=2, count=3, seed=1)
@example(n=201, r=3, count=3, seed=2)
@example(n=1001, r=4, count=None, seed=3)
def test_dft_matches_direct_sum(n, r, count, seed):
    # every ordinate j = 0 .. n - 1, each sample of a stack alike, against the explicit sum with the
    # angle reduced mod n, to 1e-13 of max|w|
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, r) if count is None else (count, n, r)) * np.exp(rng.uniform(-2.0, 2.0, r))
    w = dft(z).w
    t = np.arange(1, n + 1)
    phases = np.exp(2j * math.pi * (np.outer(np.arange(n), t) % n) / n)
    direct = (phases @ z) / math.sqrt(TWO_PI * n)
    assert w.shape == direct.shape
    assert np.max(np.abs(w - direct)) <= 1e-13 * np.max(np.abs(w))


def test_dft_conjugate_symmetry_is_exact():
    rng = np.random.default_rng(11)
    for n in (12, 13, 97, 200, 201):
        for shape in ((n, 3), (4, n, 2)):
            w = dft(rng.standard_normal(shape)).w
            for j in range(1, n):
                assert np.array_equal(w[..., n - j, :], np.conj(w[..., j, :]))
            assert np.array_equal(w[..., 0, :], w[..., 0, :].real)
            if n % 2 == 0:
                assert np.array_equal(w[..., n // 2, :], w[..., n // 2, :].real)


def test_parseval_identity():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(8, 200))
        z = rng.standard_normal((n, 2))
        frame = dft(z)
        lhs = np.sum(np.abs(frame.w) ** 2)
        rhs = np.sum(z**2) / TWO_PI
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_periodogram_periodicity_and_hermitianness():
    rng = np.random.default_rng(29)
    frame = dft(rng.standard_normal((20, 2)))
    for j in (1, 7, 13):
        a = periodogram(frame, j)
        assert np.allclose(a, periodogram(frame, j + 20), atol=0.0)
        assert np.allclose(a, periodogram(frame, j - 20), atol=0.0)
        assert np.allclose(a, a.conj().T, atol=1e-15)
    # a flat span-2 window averages three neighbouring ordinates
    est = smoothed_periodogram(frame, WeightKernel.flat(2))
    assert est.matrices.shape == (10, 2, 2)
    window = (periodogram(frame, 6) + periodogram(frame, 7) + periodogram(frame, 8)) / 3.0
    assert np.allclose(est.matrices[6], window, atol=1e-15)


def test_kernel_constants_flat_exact():
    cu, du, bu = kernel_constants(flat_u)
    assert cu == pytest.approx(0.5, abs=1e-10)
    assert du == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert bu == pytest.approx(1.0, abs=1e-10)


def test_kernel_constants_quadrature_converged(monkeypatch):
    for u in (flat_u, lambda x: 1.0 + np.cos(math.pi * np.asarray(x, dtype=float))):
        fine = kernel_constants(u)
        with monkeypatch.context() as patch:
            patch.setattr(spectest.spectral, "QUADRATURE_PANELS", 1024)
            coarse = kernel_constants(u)
        assert np.max(np.abs(np.array(coarse) - np.array(fine))) < 1e-8


@pytest.mark.parametrize(
    "u",
    [flat_u, lambda x: 1.0 + np.cos(math.pi * x), lambda x: 1.5 - np.abs(x)],
    ids=["flat", "cosine-bump", "triangle"],
)
def test_simpson_matches_scipy_on_kernel_grids(u):
    panels = spectest.spectral.QUADRATURE_PANELS
    x = np.linspace(-0.5, 0.5, panels + 1)
    cases = [(u(x), x), (u(x) ** 4, x)]
    for z in np.linspace(0.0, 1.0, panels + 1)[:: panels // 8]:  # rho(z) grids
        xs = np.linspace(-0.5, 0.5 - z, panels + 1)
        cases.append((u(xs) * u(xs + z), xs))
    for y, grid in cases:
        ours, ref = _simpson(y, grid), simpson(y, x=grid)
        if u is flat_u:
            assert ours == ref
        assert abs(ours - ref) <= 1e-15 * abs(ref)


def test_kernel_constants_cosine_bump_oracle():
    # u(x) = 1 + cos(pi x): closed forms for C and B, adaptive quadrature for D.
    u = lambda x: 1.0 + np.cos(math.pi * np.asarray(x, dtype=float))
    cu, du, bu = kernel_constants(u)
    norm = 1.0 + 2.0 / math.pi
    second = 1.5 + 4.0 / math.pi
    fourth = 4.375 + 40.0 / (3.0 * math.pi)
    assert cu == pytest.approx(0.5 * second / norm**2, abs=1e-10)
    assert bu == pytest.approx(second**2 / fourth, abs=1e-10)

    def rho(z):
        return (
            (1.0 - z)
            + (2.0 / math.pi) * (1.0 + math.cos(math.pi * z))
            + 0.5 * (1.0 - z) * math.cos(math.pi * z)
            + math.sin(math.pi * z) / (2.0 * math.pi)
        )

    du_ref = quad(lambda z: rho(z) ** 2, 0.0, 1.0, epsabs=1e-13)[0] / norm**4
    assert du == pytest.approx(du_ref, abs=1e-9)


def test_weight_kernel_flat_shortcut_matches_quadrature():
    direct = WeightKernel.flat(8)
    # a scalar u(x) is broadcast to the grid's shape
    for u in (flat_u, lambda x: 1.0):
        via_function = WeightKernel.from_function(u, 8)
        assert np.array_equal(direct.weights, via_function.weights)
        assert direct.wstar == via_function.wstar
        assert direct.cu == pytest.approx(via_function.cu, abs=1e-10)
        assert direct.du == pytest.approx(via_function.du, abs=1e-10)
        assert direct.bu == pytest.approx(via_function.bu, abs=1e-10)


def test_weight_function_output_must_broadcast():
    with pytest.raises(ValueError, match="one of its shape"):
        WeightKernel.from_function(lambda x: np.ones(3), 8)
    with pytest.raises(ValueError, match="one of its shape"):
        kernel_constants(lambda x: np.ones(np.size(x) + 1))


def test_weight_kernel_validation():
    with pytest.raises(ValueError):
        WeightKernel.flat(7)
    with pytest.raises(ValueError):
        WeightKernel.flat(0)
    with pytest.raises(ValueError):
        WeightKernel(weights=np.array([1.0, -1.0, 1.0]), cu=0.5, du=1 / 3, bu=1.0)
    with pytest.raises(ValueError):
        WeightKernel(weights=np.array([0.5, 1.0, 1.0]), cu=0.5, du=1 / 3, bu=1.0)
    # the span m is read from the weights, so it must be even: m + 1 weights
    with pytest.raises(ValueError, match="span m must be even and >= 2, got 3"):
        WeightKernel(weights=np.ones(4), cu=0.5, du=1 / 3, bu=1.0)
    bump = WeightKernel(weights=np.array([0.5, 1.0, 0.5]), cu=0.5, du=1 / 3, bu=1.0)
    assert (bump.m, bump.wstar) == (2, 2.0)


def test_weight_kernel_coerces_weights_to_floats():
    # a list or tuple of numbers works like the float array it holds
    for weights in ([1.0, 1.0, 1.0], (1, 1, 1)):
        kernel = WeightKernel(weights, 0.5, 1 / 3, 1.0)
        assert kernel.weights.dtype == float and np.array_equal(kernel.weights, WeightKernel.flat(2).weights)
        assert (kernel.m, kernel.wstar) == (2, 3.0)
    # a string, None, a complex entry (whose imaginary part a float cast would drop) or a ragged list
    for weights in ([1.0, "x", 1.0], ["1", "1", "1"], [1.0, None, 1.0], np.array([1j, 1.0, 1j]), [[1.0, 1.0], [1.0]]):
        with pytest.raises(ValueError, match="weights must be real numbers"):
            WeightKernel(weights, 0.5, 1 / 3, 1.0)
    for weights in ([np.nan, 1.0, np.nan], [np.inf, 1.0, np.inf]):
        with pytest.raises(ValueError, match="weights must be finite and strictly positive"):
            WeightKernel(weights, 0.5, 1 / 3, 1.0)


def test_smoothed_periodogram_is_window_average():
    rng = np.random.default_rng(37)
    z = rng.standard_normal((64, 2))
    frame = dft(z)
    est = smoothed_periodogram(frame, WeightKernel.flat(6))
    assert est.kind == "unrestricted"
    assert est.matrices.shape == (32, 2, 2)
    # sums of exactly Hermitian products with real weights need no symmetrizing pass
    assert np.array_equal(est.matrices, np.conj(np.swapaxes(est.matrices, 1, 2)))
    # direct wrap-around window at t = 1 and t = 31
    for t in (1, 31):
        window = sum(periodogram(frame, t + k) for k in range(-3, 4)) / 7.0
        assert np.allclose(est.matrices[t - 1], window, atol=1e-13)
    # unequal weights u(k/m) = 1 + cos(pi k/m), normalized by their sum
    bump = WeightKernel.from_function(
        lambda x: 1.0 + np.cos(math.pi * np.asarray(x, dtype=float)), 6
    )
    est = smoothed_periodogram(frame, bump)
    assert np.array_equal(est.matrices, np.conj(np.swapaxes(est.matrices, 1, 2)))
    for t in (1, 31):
        window = sum(u * periodogram(frame, t + k) for u, k in zip(bump.weights, range(-3, 4)))
        assert np.allclose(est.matrices[t - 1], window / bump.wstar, atol=1e-13)


def relative_error(est, want):
    """Largest entrywise |est - want| / sqrt(f_aa f_bb), with f the diagonal of want."""
    diag = np.sqrt(np.real(np.diagonal(want, axis1=-2, axis2=-1)))
    return np.max(np.abs(est - want) / (diag[..., :, np.newaxis] * diag[..., np.newaxis, :]))


def is_exactly_hermitian(matrices):
    return np.array_equal(matrices, np.conj(np.swapaxes(matrices, -1, -2)))


@pytest.mark.parametrize("n", [101, 128])
def test_smoothing_matches_the_complex_pair_sum_oracle(n):
    frame = dft(np.random.default_rng(n).standard_normal((5, n, 3)))
    bump = WeightKernel.from_function(lambda x: 1.0 + np.cos(math.pi * np.asarray(x, dtype=float)), 10)
    # other weights keep the weighted pair sums, bit for bit
    assert np.array_equal(smoothed_periodogram(frame, bump).matrices, smoothed_by_multiply(frame, bump))
    # flat weights take two-block sums, which add the same terms in another order
    for kernel in (WeightKernel.flat(2), WeightKernel.flat(10), WeightKernel.flat(30)):
        est = smoothed_periodogram(frame, kernel).matrices
        assert is_exactly_hermitian(est)
        assert relative_error(est, smoothed_by_multiply(frame, kernel)) < 1e-14


def near_unit_root(seed, count, n, r):
    """(count, n, r) samples: AR(1) with coefficient 0.999 at power 1e4, beside white noise at 1e-4."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((count, n, r))
    ar = np.empty((count, n))
    ar[:, 0] = e[:, 0, 0] / math.sqrt(1.0 - 0.999**2)  # the stationary start
    for t in range(1, n):
        ar[:, t] = 0.999 * ar[:, t - 1] + e[:, t, 0]
    return np.concatenate([1e2 * ar[..., np.newaxis], 1e-2 * e[..., 1:]], axis=-1)


@pytest.mark.parametrize(
    "n, r, m",
    [
        (99, 1, 2),  # n//2 + m = 51, seventeen whole blocks of m + 1 = 3
        (101, 1, 2),  # 52, a partial last block
        (112, 5, 10),  # 66 = 6 x 11
        (128, 5, 10),  # 74, a partial last block
        (601, 3, 22),  # 322 = 14 x 23
        (600, 5, 22),  # 322 again, with an even n
    ],
)
def test_two_block_window_sums_match_the_direct_sum(n, r, m):
    # The AR(1) series' smoothed spectrum falls by up to 4e4 from its peak, and the white
    # series lie 1e8 below it in power.  A window sum taken as a difference of running
    # sums misses the quiet frequencies here by about 1e-11 of their scale.
    samples = near_unit_root(n + r + m, 3, n, r)
    kernel = WeightKernel.flat(m)
    stacked = smoothed_periodogram(samples, kernel)
    assert is_exactly_hermitian(stacked.matrices)
    assert np.array_equal(stacked.pd, is_positive_definite(stacked.matrices))
    assert relative_error(stacked.matrices, smoothed_by_multiply(dft(samples), kernel)) < 1e-14
    for sample, matrices, pd in zip(samples, stacked.matrices, stacked.pd):
        single = smoothed_periodogram(sample, kernel)
        assert np.array_equal(single.matrices, matrices) and np.array_equal(single.pd, pd)


def test_smoothed_periodogram_frequencies_and_pd():
    rng = np.random.default_rng(41)
    est = smoothed_periodogram(rng.standard_normal((100, 3)), WeightKernel.flat(10))
    assert np.allclose(est.frequencies, TWO_PI * np.arange(1, 51) / 100.0, atol=1e-15)
    assert est.pd.all()


def test_smoothed_periodogram_quadratic_scaling():
    rng = np.random.default_rng(43)
    z = rng.standard_normal((80, 2))
    kernel = WeightKernel.flat(8)
    base = smoothed_periodogram(z, kernel)
    scaled = smoothed_periodogram(3.0 * z, kernel)
    assert np.allclose(scaled.matrices, 9.0 * base.matrices, rtol=1e-12, atol=1e-15)


def test_smoothed_periodogram_bandwidth_guards():
    z = np.random.default_rng(0).standard_normal((20, 2))
    with pytest.raises(BandwidthTooLarge):
        smoothed_periodogram(z, WeightKernel.flat(10))
    with pytest.raises(ValueError):
        smoothed_periodogram(np.random.default_rng(1).standard_normal((40, 4)), WeightKernel.flat(2))


def test_moving_average_spectrum_recovered():
    # X_t = e_t + 0.5 e_{t-1} has spectrum (1.25 + cos lam) / (2 pi).
    rng = np.random.default_rng(53)
    n = 4096
    e = rng.standard_normal(n + 1)
    z = e[1:] + 0.5 * e[:-1]
    est = smoothed_periodogram(z, WeightKernel.flat(128))
    lam = est.frequencies
    truth = (1.25 + np.cos(lam)) / TWO_PI
    ratio = np.real(est.matrices[:, 0, 0]) / truth
    assert abs(np.mean(ratio) - 1.0) < 0.05
    assert np.max(np.abs(ratio - 1.0)) < 0.5


def test_leave_out_identity():
    # (m+1) * flat smoothed - own ordinate = m * leave-out mean.
    rng = np.random.default_rng(61)
    z = rng.standard_normal((60, 2))
    frame = dft(z)
    m = 6
    est = smoothed_periodogram(frame, WeightKernel.flat(m))
    for t in (1, 2, 17, 30):
        direct = (m + 1) * est.matrices[t - 1] - periodogram(frame, t)
        assert np.allclose(direct, m * leave_out(frame, t, m), atol=1e-12)


def test_cvll_score_matches_direct_loop():
    rng = np.random.default_rng(67)
    z = rng.standard_normal((64, 2))
    frame = dft(z)
    m = 6
    total = 0.0
    for j in range(1, 33):
        g = leave_out(frame, j, m)
        total += np.real(np.trace(periodogram(frame, j) @ inverse_pd(g))) + logdet(g)
    assert cvll_score(frame, m) == pytest.approx(total / 64.0, rel=1e-10)


def test_cvll_curve_matches_per_span_oracle():
    rng = np.random.default_rng(83)
    z = rng.standard_normal((64, 3)) @ np.array([[1.0, 0.4, 0.0], [0.0, 1.0, -0.3], [0.2, 0.0, 1.0]])
    frame = dft(z)
    best, scores = cvll_select(frame, grid=[12, 4, 8, 8, 30])
    assert [m for m, _ in scores] == [4, 8, 8, 12, 30]
    oracle = {}
    for m in (4, 8, 12, 30):
        total = 0.0
        for j in range(1, 33):
            g = leave_out(frame, j, m)
            total += np.real(np.trace(np.linalg.solve(g, periodogram(frame, j)))) + logdet(g)
        oracle[m] = total / 64.0
    for m, score in scores:
        assert score == pytest.approx(oracle[m], rel=1e-10)
        # the one-span entry point runs the same curve, so it agrees to the bit
        assert cvll_score(frame, m) == score
    assert best == min(oracle, key=oracle.get)
    # a bad span anywhere in the grid raises what the per-span check raises
    with pytest.raises(ValueError, match="even and >= 2, got 5"):
        cvll_select(frame, grid=[12, 4, 5, 30])
    with pytest.raises(ValueError, match="m = 2 too small for dimension r = 3"):
        cvll_select(frame, grid=[12, 8, 2])
    with pytest.raises(BandwidthTooLarge, match="m = 32 must satisfy"):
        cvll_select(frame, grid=[32, 4, 8])


def test_cvll_score_rejects_a_stack():
    stack = np.random.default_rng(3).standard_normal((2, 64, 2))
    for sample in (stack, dft(stack), stack[:1]):
        with pytest.raises(ValueError, match=r"got a stack of shape \(\d, 64, 2\); cvll_select"):
            cvll_score(sample, 8)


def harmonics(n, step, rng):
    """Two series of cosines at every step-th Fourier index plus noise far below the PD floor.

    A leave-out estimate is singular, so the span scores +inf, until its window
    reaches two of those indices around every frequency: m >= 4 step.
    """
    t = np.arange(n)[:, np.newaxis]
    z = sum(rng.standard_normal(2) * np.cos(2 * np.pi * f * t / n + rng.uniform(0, 2 * np.pi, 2))
            for f in range(step, n // 2, step))
    return z + 1e-9 * rng.standard_normal(z.shape)


@pytest.mark.parametrize("case", ["default grid", "one span", "inf inside a block", "collinear", "stack"])
def test_cvll_curve_is_the_same_in_any_block_size(monkeypatch, case):
    # Spans are eliminated a block at a time; the block size must not move a score.
    rng = np.random.default_rng(97)
    z = rng.standard_normal((201, 3)) @ np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
    collinear = np.column_stack([z[:, :2], z[:, 0] - 2.0 * z[:, 1]])
    grid = default_cvll_grid(201, 3)
    if case == "one span":
        grid = [grid[4]]
    elif case == "inf inside a block":
        z, grid = harmonics(400, 10, rng), list(range(2, 62, 2))
    elif case == "collinear":
        z = collinear
    elif case == "stack":
        z = np.stack([z, collinear, z[::-1]])
    frame = dft(z)
    # packed bordered elements per span, over every sample of a stack
    per_span = (frame.r + 1) * (frame.r + 2) // 2 * (frame.n // 2) * math.prod(frame.w.shape[:-2])
    curves = [_cvll_curve(frame, grid)]
    for spans in (1, 3, len(grid)):
        monkeypatch.setattr(spectest.spectral, "_CVLL_BLOCK_ELEMENTS", spans * per_span)
        curves.append(_cvll_curve(frame, grid))
    assert all(np.array_equal(curve, curves[0]) for curve in curves) and len(curves[0]) == len(grid)
    if case == "inf inside a block":
        # m = 38 scores +inf and m = 40 does not; every block size above one span puts both in one block
        assert np.all(curves[0][:19] == math.inf) and np.all(np.isfinite(curves[0][19:]))
    if case == "stack":
        for k, sample in enumerate(z):  # each column is that sample's own curve
            assert np.array_equal(curves[0][:, k], _cvll_curve(dft(sample), grid))
    if case in ("collinear", "stack"):
        # the collinear sample scores +inf at every span, so the stack holding it has no usable span either
        assert np.all((curves[0][:, 1] if case == "stack" else curves[0]) == math.inf)
        with pytest.raises(NoUsableSpan):
            cvll_select(frame, grid=grid)
    else:
        assert math.isfinite(np.min(curves[0]))


@pytest.mark.parametrize("case", ["r = 1", "r = 2", "r = 3", "r = 4", "harmonics", "collinear"])
def test_cvll_curve_matches_full_bordered_stacks(case):
    # The packed in-place elimination keeps the bits of one full bordered stack per span;
    # at n = 1001 the default grid spans several blocks and ends in a partial one.
    rng = np.random.default_rng(101)
    r = int(case[-1]) if case.startswith("r =") else 3
    z = rng.standard_normal((1001, r)) @ np.triu(rng.uniform(0.2, 1.0, (r, r)))
    grid = default_cvll_grid(1001, r)
    if case == "harmonics":
        z, grid = harmonics(400, 10, rng), list(range(2, 62, 2))
    elif case == "collinear":
        z = np.column_stack([z[:, :2], z[:, 0] - 2.0 * z[:, 1]])
    frame = dft(z)
    curve = _cvll_curve(frame, grid)
    assert np.array_equal(curve, bordered_cvll_curve(frame, grid)) and curve.shape == (len(grid),)
    # a stack of one sample gives the same bits in its one column
    assert np.array_equal(_cvll_curve(dft(z[np.newaxis]), grid), curve[:, np.newaxis])
    assert any(math.isinf(score) for score in curve) == (case in ("harmonics", "collinear"))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5), n=st.integers(24, 160), r=st.integers(1, 4))
def test_stacked_cvll_select_is_each_samples_own(seed, count, n, r):
    # No step mixes samples, so a stack's best spans and score columns are each sample's own call.
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, n, r)) @ np.triu(rng.uniform(0.2, 1.0, (r, r)))
    spans, scores = cvll_select(z)
    grid = default_cvll_grid(n, r)
    assert spans.shape == (count,) and scores.shape == (len(grid), count)
    for k, sample in enumerate(z):
        best, own = cvll_select(sample)
        assert spans[k] == best and [m for m, _ in own] == grid
        assert np.array_equal(scores[:, k], [score for _, score in own])


def test_running_sums_keep_accuracy_over_wide_dynamic_range():
    # An AR(1) component with a = 0.99 and power scale 1e4 beside white noise
    # of power 1e-4: the spectrum spans about 1e12 between its peak at zero
    # frequency and the white floor.  A sum that subtracted large partial sums
    # (a prefix-sum difference) would leave errors in proportion to the peak at
    # the quiet frequencies, so each entry's error is measured against its own
    # frequency's scale sqrt(f_aa f_bb), which is at most that frequency's norm.
    rng = np.random.default_rng(89)
    n = 512
    e = rng.standard_normal((n + 500, 2))
    ar = np.zeros(n + 500)
    for t in range(1, n + 500):
        ar[t] = 0.99 * ar[t - 1] + e[t, 0]
    z = np.column_stack([1e2 * ar[500:], 1e-2 * e[500:, 1]])
    frame = dft(z)
    bump = WeightKernel.from_function(lambda x: 1.0 + np.cos(math.pi * np.asarray(x, dtype=float)), 40)
    for kernel in (WeightKernel.flat(8), WeightKernel.flat(40), bump):
        h = kernel.m // 2
        est = smoothed_periodogram(frame, kernel).matrices
        for t in range(1, n // 2 + 1):
            window = sum(u * periodogram(frame, t + k) for u, k in zip(kernel.weights, range(-h, h + 1)))
            window /= kernel.wstar
            diag = np.sqrt(np.real(np.diag(window)))
            assert np.max(np.abs(est[t - 1] - window) / np.outer(diag, diag)) < 1e-14
    peak, quiet = np.real(est[0, 0, 0]), np.real(est[-1, 1, 1])
    assert peak / quiet > 1e8
    _, scores = cvll_select(frame, grid=[8, 40])
    for m, score in scores:
        total = 0.0
        for j in range(1, n // 2 + 1):
            g = leave_out(frame, j, m)
            total += np.real(np.trace(np.linalg.solve(g, periodogram(frame, j)))) + logdet(g)
        # 256 terms of O(1) round to about 1e-15; a prefix-sum difference misses by 5e-14
        assert score == pytest.approx(total / n, rel=1e-14)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    perm=st.permutations([0, 1, 2]),
    scales=st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3),
)
def test_cvll_permutation_and_scale_invariance(seed, perm, scales):
    # Relabelling components permutes every leave-out estimate by congruence,
    # so no score moves.  Scaling column a by c_a leaves w^H G^{-1} w alone and
    # adds 2 sum_a log c_a to each of the n//2 log determinants.
    rng = np.random.default_rng(seed)
    n = 96
    mix = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
    z = rng.standard_normal((n, 3)) @ mix
    best, scores = cvll_select(z)
    best_perm, scores_perm = cvll_select(z[:, perm])
    assert best_perm == best
    for (m, score), (m_perm, moved) in zip(scores, scores_perm):
        assert m_perm == m
        assert moved == pytest.approx(score, rel=1e-10)
    shift = 2.0 * (n // 2) * float(np.sum(np.log(scales))) / n
    best_scaled, scores_scaled = cvll_select(z * np.array(scales))
    assert best_scaled == best
    for (_, score), (_, scaled) in zip(scores, scores_scaled):
        assert scaled == pytest.approx(score + shift, rel=1e-10)


def test_cvll_select_deterministic_and_scale_invariant():
    rng = np.random.default_rng(71)
    z = rng.standard_normal((128, 2))
    best1, scores1 = cvll_select(z)
    best2, scores2 = cvll_select(z)
    assert best1 == best2
    assert scores1 == scores2
    best_scaled, _ = cvll_select(2.5 * z)
    assert best_scaled == best1
    assert best1 in default_cvll_grid(128, 2)


def test_cvll_select_prefers_smallest_on_ties():
    rng = np.random.default_rng(73)
    z = rng.standard_normal((64, 2))
    best, scores = cvll_select(z)
    values = dict(scores)
    tied = [m for m, s in scores if s == values[best]]
    assert best == min(tied)


def test_default_grid_bounds():
    grid = default_cvll_grid(1024, 3)
    # n^0.4 = 16 exactly; floating point must not push the lower edge to 18
    assert grid[0] == 16
    assert grid[-1] == 256
    assert all(m % 2 == 0 for m in grid)
    with pytest.raises(EmptyGrid):
        default_cvll_grid(8, 3)


def test_validate_sample_shapes():
    out = validate_sample([1.0, 2.0, 3.0])
    assert out.shape == (3, 1)
    with pytest.raises(ValueError):
        validate_sample(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        validate_sample(np.array([[1.0], [np.nan]]))


def test_stacked_samples_must_be_finite():
    # an (R, n, r) stack gets the same finiteness check as one (n, r) sample
    with pytest.raises(ValueError, match="sample contains non-finite values"):
        dft(np.full((2, 16, 2), np.nan))
    stack = np.random.default_rng(3).standard_normal((2, 16, 2))
    stack[1, 5, 0] = np.inf
    with pytest.raises(ValueError, match="sample contains non-finite values"):
        smoothed_periodogram(stack, WeightKernel.flat(4))
    assert dft(stack[:1]).w.shape == (1, 16, 2)


def test_spectral_sequence_validation():
    mats = np.stack([np.eye(2), np.eye(2)])
    seq = SpectralSequence.from_matrices("restricted", 4, mats)
    assert seq.half == 2
    assert seq.pd.all()
    bad = np.stack([np.array([[1.0, 1.0], [0.0, 1.0]])])
    with pytest.raises(ValueError):
        SpectralSequence(kind="restricted", n=2, r=2, matrices=bad, pd=np.array([True]))
    # asymmetry up to 1e-10 of max(1, max|A|) is drift, not an error, and nothing is symmetrized
    drift = np.stack([np.array([[1.0, 1e-11], [0.0, 1.0]])])
    seq = SpectralSequence(kind="restricted", n=2, r=2, matrices=drift, pd=np.array([True]))
    assert seq.matrices is drift
    with pytest.raises(ValueError, match="not Hermitian: max asymmetry 1.000e-09 exceeds tolerance 1.000e-10"):
        SpectralSequence(kind="restricted", n=2, r=2, matrices=100.0 * drift - 99.0 * np.eye(2), pd=np.array([True]))
    with pytest.raises(ValueError):
        SpectralSequence.from_matrices("banana", 4, mats)
    # from_matrices checks before it takes the Hermitian part, as covariance_selection does
    with pytest.raises(ValueError, match="matrix is not Hermitian: max asymmetry 5.000e"):
        SpectralSequence.from_matrices("restricted", 4, np.stack([np.array([[1.0, 5.0], [0.0, 1.0]])] * 2))


def test_frame_reuse_matches_sample_entry():
    rng = np.random.default_rng(79)
    z = rng.standard_normal((50, 2))
    frame = dft(z)
    a = smoothed_periodogram(z, WeightKernel.flat(6))
    b = smoothed_periodogram(frame, WeightKernel.flat(6))
    assert np.array_equal(a.matrices, b.matrices)
    assert isinstance(frame, FourierFrame)


SPECTRAL_ERRORS = {
    "empty sample": (lambda: validate_sample(np.zeros((0, 3))), ValueError,
                     "sample must be nonempty, got shape (0, 3)"),
    "weight not positive": (lambda: kernel_constants(lambda x: 0.25 - x**2), ValueError,
                            "weight function must be strictly positive on [-1/2, 1/2]"),
    "2-d weights": (lambda: WeightKernel(np.ones((3, 3)), 0.5, 1.0 / 3.0, 1.0), ValueError,
                    "weights must be 1-d, got shape (3, 3)"),
    "constant not positive": (lambda: WeightKernel(np.ones(5), 0.5, 0.0, 1.0), ValueError,
                              "kernel constants must be positive"),
    "2D/B above 1": (lambda: WeightKernel(np.ones(5), 0.5, 0.6, 1.0), ValueError,
                     "constants violate 2D/B <= 1; weight function is invalid"),
    "matrix shape": (lambda: SpectralSequence("unrestricted", 16, 2, np.eye(2, dtype=complex) * np.ones((7, 1, 1)),
                                              np.ones(7, dtype=bool)), ValueError,
                     "matrices must have shape (..., 8, 2, 2), got (7, 2, 2)"),
    "pd shape": (lambda: SpectralSequence("unrestricted", 16, 2, np.eye(2, dtype=complex) * np.ones((8, 1, 1)),
                                          np.ones(7, dtype=bool)), ValueError,
                 "pd flags must align with the frequency grid"),
    "empty grid": (lambda: cvll_select(np.random.default_rng(0).standard_normal((64, 2)), grid=[]), EmptyGrid,
                   "candidate grid is empty"),
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_ERRORS))
def test_spectral_errors(name):
    call, error, message = SPECTRAL_ERRORS[name]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
