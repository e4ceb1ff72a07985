"""Tests for the eigenvalue discrepancy families."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pencil_terms_by_full_sweeps

from spectest.divergence import J, KL, QUADRATIC, Discrepancy, _pencil_terms, chernoff, discrepancy
from spectest.errors import NonPositiveEigenvalue
from spectest.hermitian import _sweep, is_positive_definite
from spectest.hypotheses import EdgeSet, GraphicalModel, IndependenceModel, SeparableModel
from spectest.spectral import SpectralSequence, WeightKernel, smoothed_periodogram


def test_frozen_values():
    # K(lam) = sum(lam - log lam) - r at lam = (2, 2): 2 - 2 log 2
    assert discrepancy(KL, [2.0, 2.0]) == pytest.approx(2.0 - 2.0 * np.log(2.0), abs=1e-12)
    # J at (2, 2): (2 + 1/2) * 2 - 4 = 1
    assert discrepancy(J, [2.0, 2.0]) == pytest.approx(1.0, abs=1e-12)
    # Chernoff(1/2) at (4,): log(2.5) - log(2) = log(1.25)
    assert discrepancy(chernoff(0.5), [4.0]) == pytest.approx(np.log(1.25), abs=1e-12)
    # Quadratic at (2,): (2 - 1)^2 / 2
    assert discrepancy(QUADRATIC, [2.0]) == pytest.approx(0.5, abs=1e-12)


def test_zero_at_unit_eigenvalues():
    ones = np.ones(4)
    for kind in (KL, J, QUADRATIC, chernoff(0.3)):
        assert discrepancy(kind, ones) == pytest.approx(0.0, abs=1e-14)


def test_local_curvature_matches_constant():
    # K(1 + e) ~ c e^2 / 2, so the ratio to the quadratic term recovers c.
    eps = 1e-4
    for kind in (KL, J, QUADRATIC, chernoff(0.5), chernoff(0.2)):
        val = discrepancy(kind, [1.0 + eps])
        assert val / (0.5 * eps**2) == pytest.approx(kind.curvature, rel=1e-3)


def test_curvature_constants():
    assert KL.curvature == 1.0
    assert J.curvature == 2.0
    assert QUADRATIC.curvature == 1.0
    assert chernoff(0.3).curvature == pytest.approx(0.21)


def test_j_is_inversion_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(20):
        lams = np.exp(rng.standard_normal(3))
        assert discrepancy(J, lams) == pytest.approx(discrepancy(J, 1.0 / lams), rel=1e-12)


def test_nonnegative_on_random_spectra():
    rng = np.random.default_rng(17)
    for _ in range(200):
        lams = np.exp(0.8 * rng.standard_normal(4))
        for kind in (KL, J, QUADRATIC, chernoff(0.7)):
            assert discrepancy(kind, lams) >= 0.0


def test_rejects_nonpositive_eigenvalues():
    for kind in (KL, J, QUADRATIC, chernoff(0.5)):
        with pytest.raises(NonPositiveEigenvalue):
            discrepancy(kind, [1.0, 0.0])
        with pytest.raises(NonPositiveEigenvalue):
            discrepancy(kind, [-0.5, 2.0])
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"must be finite, got {value}"):
                discrepancy(kind, [1.0, value])
        for eigs in ([], np.ones((2, 2))):
            with pytest.raises(ValueError) as caught:
                discrepancy(kind, eigs)
            assert type(caught.value) is ValueError and str(caught.value) == "eigs must be a nonempty 1-d array"


def test_chernoff_alpha_validation():
    with pytest.raises(ValueError):
        chernoff(0.0)
    with pytest.raises(ValueError):
        chernoff(1.0)
    with pytest.raises(ValueError):
        Discrepancy(family="nonsense")


def test_labels():
    assert KL.label == "kl"
    assert J.label == "j"
    assert QUADRATIC.label == "quadratic"
    assert chernoff(0.5).label == "chernoff(0.5)"
    assert chernoff(0.25).label == "chernoff(0.25)"


def _hermitian_pairs(rng, lead, r, real=False):
    """Two (*lead, r, r) stacks of Hermitian positive definite matrices."""
    x = rng.standard_normal((2,) + lead + (r, r + 2))
    if not real:
        x = x + 1j * rng.standard_normal(x.shape)
    a, b = x @ np.conj(np.swapaxes(x, -1, -2)) / (r + 2)
    return a, b


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 6),
    stacked=st.booleans(),
    real=st.booleans(),
    picks=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    alpha=st.floats(0.05, 0.95),
    bad=st.integers(0, 23),
)
def test_pencil_terms_match_full_sweeps(seed, r, stacked, real, picks, alpha, bad):
    # Every family, alone or with others (kl without j takes its log det by a sweep), on one
    # sample or an (R, half) stack, with one index where A and another where B is not PD.
    rng = np.random.default_rng(seed)
    a, b = _hermitian_pairs(rng, (3, 8) if stacked else (8,), r, real)
    a.reshape(-1, r, r)[bad % 8] *= -1.0
    b.reshape(-1, r, r)[(bad + 3) % 8] *= -1.0
    kinds = [(KL, J, QUADRATIC, chernoff(alpha))[i] for i in picks]
    pencil = [np.moveaxis(m, (-2, -1), (0, 1)) for m in (a, b)]
    before = [m.copy() for m in pencil]
    got = _pencil_terms(kinds, *pencil)
    want = pencil_terms_by_full_sweeps(kinds, *[m.copy() for m in before])
    for kind in kinds:
        assert np.array_equal(got[kind], want[kind], equal_nan=True)
        assert got[kind].tobytes() == want[kind].tobytes()  # signed zeros and NaN payloads too
    assert all(np.array_equal(m, m0) for m, m0 in zip(pencil, before))
    # One frequency alone, where numpy reduces a trace's r^2 products as its inner axis, pairwise
    # from 8 on, unless the pencil adds them in turn.
    single = [m.reshape(r, r, -1)[..., seed % 8, np.newaxis] for m in before]
    got = _pencil_terms(kinds, *single)
    want = pencil_terms_by_full_sweeps(kinds, *[m.copy() for m in single])
    for kind in kinds:
        assert got[kind].shape == (1,) and got[kind].tobytes() == want[kind].tobytes()


def _handed(model, b, theta=None):
    """model's restriction of the frequency-first (..., half, r, r) stack b: its frequency-last matrices
    and the inverse it hands the pencil, with its screen."""
    unrestricted = SpectralSequence.from_matrices("unrestricted", 2 * b.shape[-3], b)
    restricted = model.restricted_estimate(unrestricted, theta)
    return np.moveaxis(restricted.matrices, (-2, -1), (0, 1)), restricted._scaled_inverse, restricted.pd


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 6),
    stacked=st.booleans(),
    real=st.booleans(),
    picks=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    alpha=st.floats(0.05, 0.95),
    bad=st.integers(0, 23),
)
def test_handed_inverse_matches_full_sweeps(seed, r, stacked, real, picks, alpha, bad):
    # The independence null hands the pencil the inverse of its diagonal B: every term has the bits of
    # full sweeps where A and B pass the screen.  The separable null's B = g_t Sigma is Sigma's
    # correlation matrix once scaled, swept once per sample, and the graphical null's completion B is
    # swept unscaled, then scaled: each agrees to 1e-12 of max(1, |term|), as a term near 0 is a
    # difference of O(1) traces and log-dets.  The graphical nulls are a chain (no edges on 2 series)
    # and a 4-cycle on the first four series.  One index has an A and another a B that is not PD.
    rng = np.random.default_rng(seed)
    lead = (3, 8) if stacked else (8,)
    a, b = _hermitian_pairs(rng, lead, r, real)
    a.reshape(-1, r, r)[bad % 8] *= -1.0
    b.reshape(-1, r, r)[(bad + 3) % 8] *= -1.0
    x = rng.standard_normal(lead[:-1] + (r, 2 * r + 2))
    sigma = x @ np.swapaxes(x, -1, -2) / (2 * r + 2)
    g = np.exp(rng.standard_normal(lead))
    g.reshape(-1)[(bad + 5) % 8] *= -1.0
    kinds = [(KL, J, QUADRATIC, chernoff(alpha))[i] for i in picks]
    a = np.moveaxis(a, (-2, -1), (0, 1))
    nulls = [(IndependenceModel(), b, None), (SeparableModel(), g[..., None, None] * sigma[..., None, :, :], sigma)]
    if r > 1:
        nulls.append((GraphicalModel(EdgeSet.from_pairs(r, [(i, i + 1) for i in range(r - 2)])), b, None))
    if r > 3:
        nulls.append((GraphicalModel(EdgeSet.from_pairs(r, [(0, 1), (1, 2), (2, 3), (0, 3)])), b, None))
    for model, b_restricted, theta in nulls:
        b, inverse, b_pd = _handed(model, b_restricted, theta)
        b = b.real if real else b
        ok = is_positive_definite(np.moveaxis(a, (0, 1), (-2, -1))) & b_pd
        assert not ok.all()
        before = [m.copy() for m in (a, b, *inverse[:2])]
        got = _pencil_terms(kinds, a, b, inverse)
        want = pencil_terms_by_full_sweeps(kinds, a.copy(), b.copy())
        for kind in kinds:
            if isinstance(model, IndependenceModel):
                assert got[kind][ok].tobytes() == want[kind][ok].tobytes()
            else:
                deviation = np.abs(got[kind] - want[kind]) / np.maximum(1.0, np.abs(want[kind]))
                assert np.all(deviation[ok] <= 1e-12)
        assert all(np.array_equal(m, m0, equal_nan=True) for m, m0 in zip((a, b, *inverse[:2]), before))
    # A smoothed periodogram's screen hands the pencil A's log det and, when j is asked for, -A^{-1}, both
    # unscaled: rescaled, every null's terms agree with full sweeps of the scaled pair to the same 1e-12,
    # and no array handed over, the factor included, is written.
    # The span is well above r: at m + 1 = r, A's condition number reaches 1e4 and either route is
    # cond(A) eps from the exact terms, and so from the other (up to 7e-13 at r = 6, m = 6).
    z = rng.standard_normal(lead[:-1] + (65, r))
    fu = smoothed_periodogram(z, WeightKernel.flat(16), inverse=any(kind.family == "j" for kind in kinds))
    a = np.moveaxis(fu.matrices, (-2, -1), (0, 1))
    for model, _, _ in nulls:
        fr = model.restricted_estimate(fu, model.estimate_theta(z))
        b, ok = np.moveaxis(fr.matrices, (-2, -1), (0, 1)), fu.pd & fr.pd
        handed = [a, b, *fr._scaled_inverse[:2], *(m for m in fu._factor if m is not None)]
        before = [m.copy() for m in handed]
        got = _pencil_terms(kinds, a, b, fr._scaled_inverse, fu._factor)
        want = pencil_terms_by_full_sweeps(kinds, a.copy(), b.copy())
        for kind in kinds:
            deviation = np.abs(got[kind] - want[kind]) / np.maximum(1.0, np.abs(want[kind]))
            assert ok.any() and np.all(deviation[ok] <= 1e-12)
        assert all(m.tobytes() == m0.tobytes() for m, m0 in zip(handed, before))


def test_pencil_terms_hold_a_few_stacks_at_most():
    # At the graphical design (r = 5, 256 frequencies) kl and j need the scaled A, B and D; the
    # whole-stack form held about 7.5 stacks at its peak.  With the inverse the independence null
    # hands over, no scaled copy of its diagonal B is made, nor with the one a graphical null hands,
    # and with A's factor handed too, -A^{-1} is rescaled into one stack of the pencil's own.  At 4096
    # frequencies numpy's ufunc buffers, of at most 8192 elements, are a small part of a stack.
    chain = GraphicalModel(EdgeSet.from_pairs(5, [(i, i + 1) for i in range(4)]))
    for half in (256, 4096):
        a, b = _hermitian_pairs(np.random.default_rng(3), (half,), 5)
        a = np.moveaxis(a, (-2, -1), (0, 1))
        minus_inverse = a.copy()
        logdet_a = _sweep(minus_inverse)[1]
        graphical = _handed(chain, b)[:2]
        for b, inverse, factor in ((np.moveaxis(b, (-2, -1), (0, 1)), None, None),
                                   (*_handed(IndependenceModel(), b)[:2], None), (*graphical, None),
                                   (*graphical, (minus_inverse, logdet_a))):
            for _ in range(2):  # the first call warms up
                tracemalloc.start()
                try:
                    start = tracemalloc.get_traced_memory()[0]
                    _pencil_terms([KL, J], a, b, inverse, factor)
                    peak = tracemalloc.get_traced_memory()[1] - start
                finally:
                    tracemalloc.stop()
            assert peak <= 5.5 * a.nbytes
