"""Tests for the eigenvalue discrepancy families."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pencil_terms_by_full_sweeps

from spectest.divergence import J, KL, QUADRATIC, Discrepancy, _pencil_terms, chernoff, discrepancy
from spectest.errors import NonPositiveEigenvalue


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
    # Every family, alone or with others (kl without j takes its log det by elimination), on one
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


def test_pencil_terms_hold_a_few_stacks_at_most():
    # At the graphical design (r = 5, 256 frequencies) kl and j need the scaled A, B and D; the
    # whole-stack form held about 7.5 stacks at its peak.
    a, b = (np.moveaxis(m, (-2, -1), (0, 1)) for m in _hermitian_pairs(np.random.default_rng(3), (256,), 5))
    _pencil_terms([KL, J], a, b)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _pencil_terms([KL, J], a, b)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * a.nbytes

