"""Tests for the null models, covariance selection, and the eta/sigma engine."""

import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectest.hypotheses
from oracles import ODD_DIAGONALS, is_chordal, selection_by_solves
from spectest.errors import DegenerateVariance, NoConvergence, NotPositiveDefinite
from spectest.hermitian import as_hermitian, inverse_pd, is_positive_definite
from spectest.hypotheses import (
    EdgeSet,
    EtaSigma,
    GraphicalModel,
    IndependenceModel,
    SeparableModel,
    _elimination_order,
    _selection_sweeps,
    covariance_selection,
    eta_sigma_generic,
    model_from_name,
    mu_tensor,
    parse_edge_list,
)
from spectest.inference import StatisticVariant, run_many
from spectest.simulation import VarOneProcess, simulate_var1
from spectest.spectral import SpectralSequence, WeightKernel, smoothed_periodogram


def random_hpd(rng, r, shift=1.0):
    x = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return x @ x.conj().T + shift * np.eye(r)


def random_hpd_stack(rng, k, r):
    x = rng.standard_normal((k, r, r)) + 1j * rng.standard_normal((k, r, r))
    return x @ np.conj(np.swapaxes(x, -1, -2)) + r * np.eye(r)


def every_edge_set(r):
    pairs = list(combinations(range(r), 2))
    for mask in range(2 ** len(pairs)):
        yield EdgeSet.from_pairs(r, [p for i, p in enumerate(pairs) if mask >> i & 1])


def swept(h, es, tol=1e-13):
    """The cyclic sweeps alone, run to tol on the Hermitian part of a (K, r, r) stack."""
    g = np.moveaxis((h + np.conj(np.swapaxes(h, -1, -2))) / 2.0, 0, -1).copy()
    assert not _selection_sweeps(g, np.arange(len(h)), es.absent_pairs, tol).size
    return np.moveaxis(g, -1, 0)


def diagonal_grid(n, r):
    """Smooth positive diagonal spectra on the half grid, one per frequency."""
    half = n // 2
    lam = 2.0 * math.pi * np.arange(1, half + 1) / n
    mats = np.zeros((half, r, r), dtype=complex)
    for a in range(r):
        mats[:, a, a] = 1.0 + 0.3 * np.cos(lam * (a + 1)) + 0.1 * a
    return SpectralSequence.from_matrices("restricted", n, mats)


# ---------------------------------------------------------------- edge sets


def test_edge_set_basics():
    es = EdgeSet.from_pairs(3, [(1, 0), (1, 2)])
    assert es.edges == frozenset({(0, 1), (1, 2)})
    assert es.missing_count == 1
    assert es.absent_pairs == [(0, 2)]
    full = EdgeSet.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
    assert full.missing_count == 0
    assert full.absent_pairs == []
    # any collection of pairs is stored as a frozenset of tuples, so the edge set stays hashable
    for edges in ({(0, 1), (1, 2)}, [[0, 1], [1, 2]]):
        given_as = EdgeSet(3, edges)
        assert given_as == es and hash(given_as) == hash(es) and given_as.absent_pairs == [(0, 2)]


def test_edge_set_validation():
    with pytest.raises(ValueError):
        EdgeSet.from_pairs(1, [])
    with pytest.raises(ValueError):
        EdgeSet.from_pairs(3, [(0, 3)])
    with pytest.raises(ValueError):
        EdgeSet.from_pairs(3, [(2, 2)])


def test_parse_edge_list():
    es = parse_edge_list("1-2, 2-3", 3)
    assert es.edges == frozenset({(0, 1), (1, 2)})
    assert parse_edge_list("", 3).missing_count == 3
    for bad in ("1-1", "0-2", "1-4", "1_2", "x-y", "1-2-3"):
        with pytest.raises(ValueError):
            parse_edge_list(bad, 3)


# ----------------------------------------------------- covariance selection


def test_selection_complete_graph_returns_input():
    rng = np.random.default_rng(5)
    h = random_hpd(rng, 3)
    es = EdgeSet.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
    assert np.allclose(covariance_selection(h, es), h, atol=1e-14)


def test_selection_chain_closed_form_real():
    h = np.array([[4.0, 1.0, 9.0], [1.0, 3.0, -1.0], [9.0, -1.0, 5.0]])
    h = (h + h.T) / 2.0 + 10.0 * np.eye(3)
    es = EdgeSet.from_pairs(3, [(0, 1), (1, 2)])
    g = covariance_selection(h, es)
    # chain graph: the absent 1-3 entry solves to H_12 H_23 / H_22
    assert g[0, 2] == pytest.approx(h[0, 1] * h[1, 2] / h[1, 1], abs=1e-12)
    assert np.allclose(np.delete(g.flatten(), [2, 6]), np.delete(h.flatten(), [2, 6]), atol=1e-14)


def test_selection_chain_closed_form_complex():
    rng = np.random.default_rng(13)
    h = random_hpd(rng, 3, shift=2.0)
    es = EdgeSet.from_pairs(3, [(0, 1), (1, 2)])
    g = covariance_selection(h, es)
    assert g[0, 2] == pytest.approx(h[0, 1] * h[1, 2] / h[1, 1].real, abs=1e-10)
    inv = inverse_pd(g)
    assert abs(inv[0, 2]) <= 1e-10 * np.max(np.abs(inv))


def test_selection_random_problems():
    rng = np.random.default_rng(17)
    for _ in range(60):
        r = int(rng.integers(3, 6))
        h = random_hpd(rng, r, shift=0.8)
        pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
        keep = [p for p in pairs if rng.random() < 0.5]
        es = EdgeSet.from_pairs(r, keep)
        g = covariance_selection(h, es, tol=1e-12)
        inv = inverse_pd(g)
        scale = np.max(np.abs(inv))
        for a, b in es.absent_pairs:
            assert abs(inv[a, b]) <= 1e-12 * scale
        for a, b in es.edges:
            assert g[a, b] == pytest.approx(h[a, b], abs=1e-12 * np.max(np.abs(h)))
        assert np.allclose(np.diag(g), np.diag(h), atol=1e-13 * np.max(np.abs(h)))
        assert is_positive_definite(g)


def test_selection_fixed_point():
    # a matrix already satisfying the constraints is returned unchanged
    rng = np.random.default_rng(19)
    k = random_hpd(rng, 4, shift=2.0)
    k[0, 2] = k[2, 0] = 0.0
    k[1, 3] = k[3, 1] = 0.0
    h = inverse_pd(k)
    es = EdgeSet.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    g = covariance_selection(h, es)
    assert np.allclose(g, h, atol=1e-10 * np.max(np.abs(h)))


def test_selection_two_by_two_zeroes_offdiagonal():
    h = np.array([[2.0, 0.7], [0.7, 1.0]])
    es = EdgeSet.from_pairs(2, [])
    g = covariance_selection(h, es)
    assert g[0, 1] == 0.0
    assert np.allclose(np.diag(g), np.diag(h))


def test_selection_rejects_indefinite():
    es = EdgeSet.from_pairs(2, [])
    with pytest.raises(NotPositiveDefinite):
        covariance_selection(np.diag([1.0, -1.0]), es)


def test_selection_stack_matches_per_matrix():
    # random edge sets drawn as in acceptance criterion 4, eight matrices each
    rng = np.random.default_rng(83)
    for trial in range(12):
        r = 3 + trial % 3
        pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
        while True:
            keep = [p for p in pairs if rng.random() < 0.5]
            if len(keep) < len(pairs):
                break
        es = EdgeSet.from_pairs(r, keep)
        stack = np.stack([random_hpd(rng, r, shift=float(r)) for _ in range(8)])
        stack[5] = -stack[5]  # not PD: comes back NaN instead of raising
        got = covariance_selection(stack, es)
        assert np.all(np.isnan(got[5]))
        assert is_positive_definite(got).tolist() == [t != 5 for t in range(8)]
        for t in (0, 1, 2, 3, 4, 6, 7):
            single = covariance_selection(stack[t], es)
            assert np.max(np.abs(got[t] - single)) <= 1e-12 * np.max(np.abs(single))
    got = covariance_selection(stack.reshape(2, 4, r, r), es)
    assert np.array_equal(got.reshape(8, r, r), covariance_selection(stack, es), equal_nan=True)


def test_elimination_order_decides_chordality():
    # every edge set on 4 and 5 vertices; labelled chordal graphs number 61 and 822
    for r, chordal in ((4, 61), (5, 822)):
        verdicts = [(_elimination_order(es) is not None, is_chordal(es)) for es in every_edge_set(r)]
        assert all(ours == oracle for ours, oracle in verdicts)
        assert sum(ours for ours, _ in verdicts) == chordal
    for es in [EdgeSet.from_pairs(2, [])] + [EdgeSet.from_pairs(r, combinations(range(r), 2)) for r in (2, 6)]:
        assert _elimination_order(es) is not None and is_chordal(es)
    square = EdgeSet.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert _elimination_order(square) is None and not is_chordal(square)


def test_closed_form_matches_sweeps():
    rng = np.random.default_rng(97)
    chordal = [es for r in range(2, 6) for es in every_edge_set(r) if _elimination_order(es) is not None]
    pairs, small = list(combinations(range(6), 2)), len(chordal)
    while len(chordal) < small + 40:
        es = EdgeSet.from_pairs(6, [p for p in pairs if rng.random() < 0.6])
        if _elimination_order(es) is not None:
            chordal.append(es)
    for es in chordal:
        h = random_hpd_stack(rng, 3, es.r)
        got = covariance_selection(h, es)
        want = swept(h, es) if es.absent_pairs else (h + np.conj(np.swapaxes(h, -1, -2))) / 2.0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_closed_form_needs_no_sweeps(monkeypatch):
    monkeypatch.setattr(spectest.hypotheses, "SELECTION_MAX_SWEEPS", 0)
    rng = np.random.default_rng(101)
    h = random_hpd(rng, 5)
    es = EdgeSet.from_pairs(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    g = covariance_selection(h, es)
    inv = inverse_pd(g)
    assert max(abs(inv[a, b]) for a, b in es.absent_pairs) <= 1e-12 * np.max(np.abs(inv))
    with pytest.raises(NoConvergence):
        covariance_selection(h[:4, :4], EdgeSet.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(2, 6),
    mask=st.integers(0, 2**15 - 1),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_selection_dempster_properties(r, mask, seed, data):
    pairs = list(combinations(range(r), 2))
    es = EdgeSet.from_pairs(r, [p for i, p in enumerate(pairs) if mask >> i & 1])
    perm = np.array(data.draw(st.permutations(range(r))))
    h = random_hpd(np.random.default_rng(seed), r, shift=float(r))
    part = (h + h.conj().T) / 2.0
    g = covariance_selection(h, es, tol=1e-13)
    kept = np.eye(r, dtype=bool)
    for a, b in es.edges:
        kept[a, b] = kept[b, a] = True
    assert np.array_equal(g[kept], part[kept])
    inv = inverse_pd(g)
    assert all(abs(inv[a, b]) <= 1e-10 * np.max(np.abs(inv)) for a, b in es.absent_pairs)
    assert is_positive_definite(g)
    # relabelling the series permutes the completion (the search order depends on the labels)
    moved = EdgeSet.from_pairs(r, [(perm[a], perm[b]) for a, b in es.edges])
    relabel = np.empty(r, dtype=int)
    relabel[perm] = np.arange(r)
    g_moved = covariance_selection(h[np.ix_(relabel, relabel)], moved, tol=1e-13)
    assert np.max(np.abs(g_moved - g[np.ix_(relabel, relabel)])) <= 1e-12 * np.max(np.abs(g))


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(2, 6),
    mask=st.integers(0, 2**15 - 1),
    shape=st.sampled_from([(), (5,), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
@example(r=3, mask=1, shape=(5,), seed=0)  # --edges 1-2: series 3 has an empty separator
@example(r=3, mask=1, shape=(), seed=0)
@example(r=4, mask=0b101101, shape=(2, 3), seed=1)  # the 4-cycle 1-2, 2-3, 3-4, 1-4
def test_selection_matches_solves(r, mask, shape, seed):
    # the frequency-last sweep kernel against frequency-first LAPACK solves, chordal or not
    es = EdgeSet.from_pairs(r, [p for i, p in enumerate(combinations(range(r), 2)) if mask >> i & 1])
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape + (r, r)) + 1j * rng.standard_normal(shape + (r, r))
    h = x @ np.conj(np.swapaxes(x, -1, -2)) + rng.choice([0.1, 1.0, float(r)]) * np.eye(r)
    if shape:
        h.reshape(-1, r, r)[1] *= -1.0  # not PD: NaN in both
    got = covariance_selection(h, es, tol=1e-13)
    assert not shape or np.all(np.isnan(got.reshape(-1, r, r)[1]))
    want = selection_by_solves(h, es, tol=1e-13)
    assert got.shape == h.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert np.max(np.abs(got - want)[finite]) <= 1e-12 * np.max(np.abs(want[finite]))
    kept = np.eye(r, dtype=bool)
    for a, b in es.edges:
        kept[a, b] = kept[b, a] = True
    part = np.where(finite, (h + np.conj(np.swapaxes(h, -1, -2))) / 2.0, np.nan)
    assert np.array_equal(got[..., kept], part[..., kept], equal_nan=True)


def test_graphical_unconverged_frequencies_fail_screen(monkeypatch):
    monkeypatch.setattr(spectest.hypotheses, "SELECTION_MAX_SWEEPS", 1)
    # 4-cycle: not decomposable, so one sweep does not settle a generic matrix
    es = EdgeSet.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    rng = np.random.default_rng(89)
    mats = []
    for t in range(8):
        if t % 2:
            k = random_hpd(rng, 4, shift=2.0)
            k[0, 2] = k[2, 0] = k[1, 3] = k[3, 1] = 0.0
            mats.append(inverse_pd(k))  # already a fixed point: settles in one sweep
        else:
            mats.append(random_hpd(rng, 4))
    fu = SpectralSequence.from_matrices("unrestricted", 16, np.stack(mats))
    expected = []
    for h in mats:
        try:
            covariance_selection(h, es)
            expected.append(True)
        except NoConvergence:
            expected.append(False)
    assert expected == [bool(t % 2) for t in range(8)]
    fr = GraphicalModel(es).restricted_estimate(fu)
    assert fr.pd.tolist() == expected

    z = rng.standard_normal((128, 4))
    report = run_many(z, GraphicalModel(es), 16, [StatisticVariant("full")])["full-kl"]
    assert report.nonpd_count > 0
    assert report.forced_reject and report.reject and report.p_value == 0.0


# ------------------------------------------------------------ the mu tensor


def test_mu_tensor_identity_map_vanishes():
    # for the identity constraint map the quadratic form collapses to zero
    rng = np.random.default_rng(23)
    g = random_hpd(rng, 3)
    ginv = inverse_pd(g)
    dg = np.zeros((3, 3, 3, 3), dtype=complex)
    for a in range(3):
        for b in range(3):
            dg[a, b, a, b] = 1.0
    mu = mu_tensor(g, ginv, dg)
    assert np.allclose(mu, 0.0, atol=1e-12)


def test_mu_tensor_independence_contraction():
    # contracting mu against g twice gives (r^2 - r)/2 whatever the diagonal
    rng = np.random.default_rng(29)
    for r in (2, 3, 4):
        g = np.diag(rng.uniform(0.5, 3.0, size=r)).astype(complex)
        dg = np.zeros((r, r, r, r), dtype=complex)
        for a in range(r):
            dg[a, a, a, a] = 1.0
        mu = mu_tensor(g, inverse_pd(g), dg)
        eta_term = np.einsum("abcd,ad,cb", mu, g, g)
        assert eta_term.real == pytest.approx((r * r - r) / 2.0, abs=1e-12)
        assert abs(eta_term.imag) < 1e-12


def test_mu_tensor_shape_validation():
    g = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        mu_tensor(g, g, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match=re.escape("dg must have shape (..., 2, 2, 2, 2), got (4, 2, 2, 3, 2)")):
        mu_tensor(np.stack([g] * 4), np.stack([g] * 4), np.zeros((4, 2, 2, 3, 2)))


def test_mu_tensor_on_a_stack_matches_each_matrix():
    rng = np.random.default_rng(31)
    for r in (2, 3, 4):
        g = random_hpd_stack(rng, 6, r)
        dg = rng.standard_normal((6,) + (r,) * 4) + 1j * rng.standard_normal((6,) + (r,) * 4)
        stacked = mu_tensor(g, inverse_pd(g), dg)
        assert stacked.shape == (6,) + (r,) * 4
        for t in range(6):
            want = mu_tensor(g[t], inverse_pd(g[t]), dg[t])
            assert np.max(np.abs(stacked[t] - want)) <= 1e-13 * np.max(np.abs(want))


# ------------------------------------------------- eta/sigma, closed versus generic


def test_independence_closed_constants():
    model = IndependenceModel()
    es = model.eta_sigma_closed(3)
    assert es.eta == pytest.approx(1.5)
    assert es.sigma2 == pytest.approx(1.0)
    es2 = model.eta_sigma_closed(2)
    assert (es2.eta, es2.sigma2) == (0.5, pytest.approx(1.0 / 3.0))


def test_separable_closed_constants():
    model = SeparableModel()
    sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    tau = np.sum(sigma**2 / np.outer(np.diag(sigma), np.diag(sigma)))
    es = model.eta_sigma_closed(2, sigma)
    assert es.eta == pytest.approx((tau / 2.0 - 2.0 + 4.0) / 4.0)
    assert es.sigma2 == pytest.approx((tau**2 / 4.0 - 2.0 + 4.0) / 6.0)


def test_graphical_closed_constants():
    es3 = GraphicalModel(EdgeSet.from_pairs(3, [(0, 1), (1, 2)])).eta_sigma_closed(3)
    assert (es3.eta, es3.sigma2) == (0.5, pytest.approx(1.0 / 3.0))
    es0 = GraphicalModel(EdgeSet.from_pairs(3, [])).eta_sigma_closed(3)
    assert (es0.eta, es0.sigma2) == (1.5, 1.0)


def test_generic_matches_independence_closed():
    model = IndependenceModel()
    for r in (2, 3):
        grid = diagonal_grid(256, r)
        got = eta_sigma_generic(grid, model.derivative_provider(r))
        want = model.eta_sigma_closed(r)
        assert got.eta == pytest.approx(want.eta, abs=1e-10)
        assert got.sigma2 == pytest.approx(want.sigma2, abs=1e-10)


def test_generic_matches_separable_closed():
    model = SeparableModel()
    sigma = np.array([[1.5, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 0.8]])
    n = 256
    half = n // 2
    lam = 2.0 * math.pi * np.arange(1, half + 1) / n
    shape = 1.0 + 0.4 * np.cos(lam)
    mats = shape[:, None, None] * sigma[None, :, :].astype(complex)
    grid = SpectralSequence.from_matrices("restricted", n, mats)
    got = eta_sigma_generic(grid, model.derivative_provider(3, sigma))
    want = model.eta_sigma_closed(3, sigma)
    assert got.eta == pytest.approx(want.eta, abs=1e-10)
    assert got.sigma2 == pytest.approx(want.sigma2, abs=1e-10)


def test_generic_scale_invariance():
    model = IndependenceModel()
    grid = diagonal_grid(128, 3)
    base = eta_sigma_generic(grid, model.derivative_provider(3))
    scaled_grid = SpectralSequence.from_matrices("restricted", 128, 7.0 * grid.matrices)
    scaled = eta_sigma_generic(scaled_grid, model.derivative_provider(3))
    assert scaled.eta == pytest.approx(base.eta, rel=1e-12)
    assert scaled.sigma2 == pytest.approx(base.sigma2, rel=1e-12)


def test_generic_kernel_and_weight_scaling():
    model = IndependenceModel()
    grid = diagonal_grid(128, 2)
    base = eta_sigma_generic(grid, model.derivative_provider(2))
    flat = eta_sigma_generic(grid, model.derivative_provider(2), kernel=WeightKernel.flat(8))
    assert flat.eta == pytest.approx(base.eta, abs=1e-12)
    assert flat.sigma2 == pytest.approx(base.sigma2, abs=1e-12)
    doubled = eta_sigma_generic(grid, model.derivative_provider(2), phi=lambda lam: 2.0)
    assert doubled.eta == pytest.approx(2.0 * base.eta, rel=1e-12)
    assert doubled.sigma2 == pytest.approx(4.0 * base.sigma2, rel=1e-12)
    neutral = eta_sigma_generic(grid, model.derivative_provider(2), phi=lambda lam: 1.0)
    assert neutral.eta == pytest.approx(base.eta, abs=1e-14)


def test_generic_rejects_bad_grid():
    mats = np.stack([np.diag([1.0, -1.0]).astype(complex)] * 4)
    grid = SpectralSequence.from_matrices("restricted", 8, mats)
    with pytest.raises(NotPositiveDefinite):
        eta_sigma_generic(grid, IndependenceModel().derivative_provider(2))


def test_eta_sigma_validation():
    with pytest.raises(DegenerateVariance):
        EtaSigma(eta=1.0, sigma2=0.0)
    with pytest.raises(ValueError):
        EtaSigma(eta=math.nan, sigma2=1.0)


# ------------------------------------------------------- restricted estimates


def white_noise_fu(rng, n, r, m=16):
    z = rng.standard_normal((n, r))
    return smoothed_periodogram(z, WeightKernel.flat(m))


def test_independence_restriction_is_diagonal_projection():
    rng = np.random.default_rng(31)
    fu = white_noise_fu(rng, 128, 3)
    fr = IndependenceModel().restricted_estimate(fu)
    assert fr.kind == "restricted"
    idx = np.arange(3)
    assert np.allclose(fr.matrices[:, idx, idx], np.real(fu.matrices[:, idx, idx]), atol=1e-14)
    off = fr.matrices.copy()
    off[:, idx, idx] = 0.0
    assert np.allclose(off, 0.0, atol=0.0)
    # idempotent
    fr2 = IndependenceModel().restricted_estimate(fr)
    assert np.allclose(fr2.matrices, fr.matrices, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(1, 6),
    shape=st.sampled_from([(), (4,), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@example(r=1, shape=(), seed=0, data=None)
def test_independence_screen_matches_the_elimination(r, shape, seed, data):
    # The restriction reads its PD verdict off the diagonal it writes; it must be is_positive_definite's
    # on the same matrices, bit for bit, for one sample's 8 frequencies or a stack of samples.
    rng = np.random.default_rng(seed)
    mats = random_hpd_stack(rng, math.prod(shape) * 8, r).reshape(shape + (8, r, r))
    idx = np.arange(r)
    if data is not None:
        size = math.prod(shape + (8, r))
        picks = data.draw(st.lists(st.sampled_from(ODD_DIAGONALS + [None]), min_size=size, max_size=size))
        diag = np.real(mats[..., idx, idx]).reshape(-1)
        diag[[i for i, v in enumerate(picks) if v is not None]] = [v for v in picks if v is not None]
        mats[..., idx, idx] = diag.reshape(shape + (8, r))
    fu = SpectralSequence._trusted("unrestricted", 16, mats, np.ones(mats.shape[:-2], dtype=bool))
    fr = IndependenceModel().restricted_estimate(fu)
    with np.errstate(all="ignore"):
        assert np.array_equal(fr.pd, is_positive_definite(fr.matrices))


@settings(max_examples=60, deadline=None)
@given(
    edges=st.sampled_from(["chain", "star", "cycle"]),
    shape=st.sampled_from([(), (4,), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_graphical_screen_matches_the_elimination(edges, shape, seed):
    # The restriction reads its PD verdict off the one sweep of its completion that also gives the
    # pencil its inverse; it must be is_positive_definite's on the completed matrices, bit for bit,
    # for the chordal chain and star and for a 4-cycle's cyclic sweeps.  Columns are scaled by up to
    # e^20 either way, two frequencies of A are not PD and one is diagonal with its last pivot at the
    # relative floor, on one side or the other.
    pairs = {"chain": [(0, 1), (1, 2), (2, 3)], "star": [(0, 1), (0, 2), (0, 3)],
             "cycle": [(0, 1), (1, 2), (2, 3), (0, 3)]}
    model = GraphicalModel(EdgeSet.from_pairs(4, pairs[edges]))
    rng = np.random.default_rng(seed)
    flat = random_hpd_stack(rng, math.prod(shape) * 8, 4)
    flat[rng.choice(len(flat), 2, replace=False)] *= -1.0
    scale = np.exp(rng.uniform(-20.0, 20.0, (len(flat), 4)))
    flat = as_hermitian(flat * scale[:, :, np.newaxis] * scale[:, np.newaxis, :])
    flat[rng.integers(len(flat))] = np.diag([1.0, 1.0, 1.0, 0.75e-12 * (1.0 + rng.choice([-1e-3, 1e-3]))])
    mats = flat.reshape(shape + (8, 4, 4))
    fu = SpectralSequence._trusted("unrestricted", 16, mats, is_positive_definite(mats))
    fr = model.restricted_estimate(fu)
    with np.errstate(all="ignore"):
        assert np.array_equal(fr.pd, is_positive_definite(fr.matrices))
    assert fr.pd.shape == shape + (8,) and not fr.pd.all()


def test_independence_screen_fails_after_an_overflowing_reciprocal():
    # A subnormal pivot clears the floor of a subnormal trace, but 1/p overflows, so the elimination
    # sends every later pivot to NaN: only the last pivot may be that small.
    for diagonal, expected in (([1e-310], True), ([1e-310, 1e-310], False), ([1e-300, 1e-310], True),
                               ([1e-310, 1e-300], False), ([1e-309, 1e-309, 1e-309], False)):
        mats = np.diag(np.array(diagonal, dtype=complex))[np.newaxis]
        fu = SpectralSequence._trusted("unrestricted", 2, mats, np.ones(1, dtype=bool))
        assert IndependenceModel().restricted_estimate(fu).pd[0] == expected
        with np.errstate(all="ignore"):
            assert is_positive_definite(mats)[0] == expected


def test_separable_theta_frozen_example():
    z = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    sigma = SeparableModel().estimate_theta(z)
    assert np.allclose(sigma, np.array([[35.0, 44.0], [44.0, 56.0]]) / 3.0, atol=1e-12)


def test_separable_restriction_fixed_point():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    n = 64
    lam = 2.0 * math.pi * np.arange(1, 33) / n
    shape = 1.0 + 0.5 * np.sin(lam)
    mats = shape[:, None, None] * sigma[None, :, :].astype(complex)
    fu = SpectralSequence.from_matrices("unrestricted", n, mats)
    fr = SeparableModel().restricted_estimate(fu, sigma)
    assert np.allclose(fr.matrices, fu.matrices, atol=1e-13)


def test_separable_restriction_structure():
    rng = np.random.default_rng(37)
    fu = white_noise_fu(rng, 128, 2)
    sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
    fr = SeparableModel().restricted_estimate(fu, sigma)
    # every restricted matrix is a positive multiple of sigma
    for t in range(0, 64, 7):
        ratio = np.real(fr.matrices[t]) / sigma
        assert np.allclose(ratio, ratio[0, 0], atol=1e-12)
        assert ratio[0, 0] > 0
    # theta enters from outside, so it is checked like any other matrix input
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        SeparableModel().restricted_estimate(fu, np.array([[1.0, 0.3], [0.0, 2.0]]))


def test_graphical_restriction_zeroes_inverse():
    rng = np.random.default_rng(41)
    fu = white_noise_fu(rng, 128, 3)
    model = GraphicalModel(EdgeSet.from_pairs(3, [(0, 1), (1, 2)]))
    before = fu.matrices.copy()
    fr = model.restricted_estimate(fu)
    assert fr.pd.all()
    # the model skips covariance_selection's checks, with the same bits and fu left alone
    assert np.array_equal(fr.matrices, covariance_selection(before, model.edges))
    assert np.array_equal(fu.matrices, before)
    for t in (0, 10, 40, 63):
        inv = inverse_pd(fr.matrices[t])
        assert abs(inv[0, 2]) <= 1e-8 * np.max(np.abs(inv))
        assert fr.matrices[t][0, 1] == pytest.approx(fu.matrices[t][0, 1], abs=1e-12)


def tent(x):
    return 1.0 - np.abs(x)


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(4, 5),
    n=st.integers(17, 90),
    m=st.sampled_from([4, 6, 8]),
    weighted=st.booleans(),
    stacked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pipeline_sequences_are_exactly_hermitian_and_screened(r, n, m, weighted, stacked, seed):
    # the pipeline builds its sequences unchecked, so they must come out exactly Hermitian
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(2, 4)), n, r) if stacked else (n, r)
    z = rng.standard_normal(shape) @ rng.standard_normal((r, r))
    kernel = WeightKernel.from_function(tent, m) if weighted else WeightKernel.flat(m)
    fu = smoothed_periodogram(z, kernel)
    chain = EdgeSet.from_pairs(r, [(a, a + 1) for a in range(r - 1)])
    ring = EdgeSet.from_pairs(r, [(a, (a + 1) % r) for a in range(r)])
    models = [IndependenceModel(), SeparableModel(), GraphicalModel(chain), GraphicalModel(ring)]
    sequences = [fu] + [model.restricted_estimate(fu, model.estimate_theta(z)) for model in models]
    for seq in sequences:
        assert np.array_equal(seq.matrices, np.conj(np.swapaxes(seq.matrices, -1, -2)), equal_nan=True)
        assert np.array_equal(seq.pd, is_positive_definite(seq.matrices))


def test_graphical_rejects_complete_edge_set():
    with pytest.raises(ValueError):
        GraphicalModel(EdgeSet.from_pairs(3, [(0, 1), (0, 2), (1, 2)]))


def test_model_from_name():
    assert isinstance(model_from_name("independence"), IndependenceModel)
    assert isinstance(model_from_name("separable"), SeparableModel)
    gm = model_from_name("graphical", r=3, edges="1-2,2-3")
    assert isinstance(gm, GraphicalModel)
    assert gm.edges.missing_count == 1
    with pytest.raises(ValueError):
        model_from_name("graphical")
    with pytest.raises(ValueError):
        model_from_name("nope")


def test_cyclic_sweeps_stop_where_the_units_do_not_matter():
    # the sweeps' stopping test is relative to sqrt((G^-1)_aa (G^-1)_bb), so rescaling a series leaves every
    # sweep, and the statistic, as it was to rounding (5e-15 here); relative to max|G^-1| it moved them by 1.4e-10
    a = 0.5 * np.eye(4) + 0.3 * np.eye(4, k=1)
    a[3, 0] = 0.3
    z = simulate_var1(VarOneProcess(a), 600, seed=5)
    model = GraphicalModel(EdgeSet.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    variants = [StatisticVariant("full"), StatisticVariant("block"), StatisticVariant("quadratic")]
    base = run_many(z, model, 40, variants)
    for u in np.random.default_rng(1).uniform(-6.0, 6.0, (12, 4)):
        scaled = run_many(z * np.exp(u), model, 40, variants)
        for label, report in base.items():
            assert scaled[label].standardized == pytest.approx(report.standardized, rel=1e-13)


HYPOTHESIS_ERRORS = {
    "selection tol": (lambda: covariance_selection(np.eye(3), EdgeSet.from_pairs(3, [(0, 1)]), tol=0.0),
                      "tol must be positive, got 0.0"),
    # 1j times the identity map's derivative
    "imaginary eta": (lambda: eta_sigma_generic(diagonal_grid(16, 2), lambda lam, g: 1j * np.eye(4).reshape((2,) * 4)),
                      "eta has a non-negligible imaginary part"),
    "graphical derivative": (lambda: GraphicalModel(EdgeSet.from_pairs(3, [(0, 1)])).derivative_provider(3),
                             "the graphical constraint map is implicit; closed-form eta/sigma only"),
    "graphical without r": (lambda: model_from_name("graphical", edges="1-2"),
                            "graphical hypothesis needs the series count to parse edges"),
}


@pytest.mark.parametrize("name", sorted(HYPOTHESIS_ERRORS))
def test_hypothesis_errors(name):
    call, message = HYPOTHESIS_ERRORS[name]
    with pytest.raises(ValueError, match=re.escape(message)) as caught:
        call()
    assert type(caught.value) is ValueError
