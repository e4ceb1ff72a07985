"""Tests for the raw statistics, standardization, and the full test pipeline."""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import eigenvalue_terms, relative_eigenvalues
from scipy.special import ndtri

from spectest.divergence import J, KL, QUADRATIC, _pencil_terms, chernoff
from spectest.errors import AlignmentMismatch, DegenerateVariance
from spectest.hypotheses import (
    EdgeSet,
    EtaSigma,
    GraphicalModel,
    IndependenceModel,
    SeparableModel,
)
from spectest.inference import (
    FIELDS,
    VALID_FORMS,
    StatisticVariant,
    _equilibrate,
    _run_samples,
    _run_stack,
    block_indices,
    decide,
    normal_quantile,
    raw_statistic,
    run_many,
    run_test,
    standardize,
)
from spectest.spectral import SpectralSequence, WeightKernel, cvll_select, smoothed_periodogram

FULL = StatisticVariant(form="full")
QUAD = StatisticVariant(form="quadratic")
BLOCK = StatisticVariant(form="block")


def sequence_pair(n, r, factor):
    """fU = factor * fR on the half grid, both PD."""
    half = n // 2
    base = np.stack([np.eye(r, dtype=complex) * (1.0 + 0.1 * (t % 3)) for t in range(half)])
    fr = SpectralSequence.from_matrices("restricted", n, base)
    fu = SpectralSequence.from_matrices("unrestricted", n, factor * base)
    return fu, fr


def test_variant_labels_and_validation():
    assert FULL.label == "full-kl"
    assert QUAD.label == "quadratic"
    assert BLOCK.label == "block-kl"
    assert StatisticVariant(form="full", kind=J).label == "full-j"
    assert StatisticVariant(form="block", kind=chernoff(0.5)).label == "block-chernoff(0.5)"
    assert QUAD.effective_kind.family == "quadratic"
    with pytest.raises(ValueError):
        StatisticVariant(form="banana")
    with pytest.raises(ValueError):
        StatisticVariant(form="weighted")  # needs a weight function


def test_block_indices_frozen_example():
    # n = 101: half 50, L = floor(50/17) = 2
    assert block_indices(50, 16).tolist() == [9, 26]
    with pytest.raises(ValueError):
        block_indices(10, 16)


def test_raw_statistic_zero_when_equal():
    fu, fr = sequence_pair(101, 2, 1.0)
    for variant in (FULL, QUAD, BLOCK):
        [(raw, nonpd)] = raw_statistic(fu, fr, [variant], 16)
        assert raw == pytest.approx(0.0, abs=1e-12)
        assert nonpd == 0


def test_raw_statistic_frozen_doubling_example():
    # r = 1, fU = 2 fR at all 50 ordinates: KL gives 50 (2 - ln 2 - 1)
    fu, fr = sequence_pair(101, 1, 2.0)
    [(raw, nonpd)] = raw_statistic(fu, fr, [FULL], 16)
    assert raw == pytest.approx(50.0 * (1.0 - math.log(2.0)), rel=1e-12)
    assert nonpd == 0
    # quadratic: 50 * (2 - 1)^2 / 2
    [(raw_q, _)] = raw_statistic(fu, fr, [QUAD], 16)
    assert raw_q == pytest.approx(25.0, rel=1e-12)
    # block: only 2 ordinates survive
    [(raw_b, _)] = raw_statistic(fu, fr, [BLOCK], 16)
    assert raw_b == pytest.approx(2.0 * (1.0 - math.log(2.0)), rel=1e-12)


def test_raw_statistic_weighted():
    fu, fr = sequence_pair(101, 1, 2.0)
    lam_weight = lambda lam: 2.0
    variant = StatisticVariant(form="weighted", phi=lam_weight)
    [(raw, _)] = raw_statistic(fu, fr, [variant], 16)
    assert raw == pytest.approx(100.0 * (1.0 - math.log(2.0)), rel=1e-12)
    assert variant.label == "weighted-kl"


def test_raw_statistic_alignment_guard():
    fu, _ = sequence_pair(101, 2, 1.0)
    _, fr = sequence_pair(99, 2, 1.0)
    with pytest.raises(AlignmentMismatch):
        raw_statistic(fu, fr, [FULL], 16)


def test_raw_statistic_counts_nonpd():
    fu, fr = sequence_pair(101, 2, 2.0)
    flags = fr.pd.copy()
    flags[3] = False
    flags[7] = False
    fr_bad = SpectralSequence(kind="restricted", n=fr.n, r=fr.r, matrices=fr.matrices, pd=flags)
    [(raw_all, _)] = raw_statistic(fu, fr, [FULL], 16)
    [(raw, nonpd)] = raw_statistic(fu, fr_bad, [FULL], 16)
    assert nonpd == 2
    # the two dropped ordinates contribute K((2,2)) = 2(1 - ln 2) each
    assert raw == pytest.approx(raw_all - 2.0 * 2.0 * (1.0 - math.log(2.0)), rel=1e-10)
    # a failed unrestricted ordinate is dropped and counted too, once per index
    flags_u = fu.pd.copy()
    flags_u[7] = False
    flags_u[11] = False
    fu_bad = SpectralSequence(kind="unrestricted", n=fu.n, r=fu.r, matrices=fu.matrices, pd=flags_u)
    [(raw, nonpd)] = raw_statistic(fu_bad, fr_bad, [FULL], 16)
    assert nonpd == 3
    assert raw == pytest.approx(raw_all - 3.0 * 2.0 * (1.0 - math.log(2.0)), rel=1e-10)
    # a block variant in the same call counts only its own positions; at
    # n = 101, m = 16 these are indices 9 and 26, and 26 now fails
    flags_u[25] = False
    fu_bad = SpectralSequence(kind="unrestricted", n=fu.n, r=fu.r, matrices=fu.matrices, pd=flags_u)
    (raw, nonpd), (raw_b, nonpd_b) = raw_statistic(fu_bad, fr_bad, [FULL, BLOCK], 16)
    assert nonpd == 4
    assert raw == pytest.approx(raw_all - 4.0 * 2.0 * (1.0 - math.log(2.0)), rel=1e-10)
    assert nonpd_b == 1
    assert raw_b == pytest.approx(2.0 * (1.0 - math.log(2.0)), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 6),
    exponents=st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6),
    eps=st.sampled_from([1.0, 1e-2, 1e-5, 1e-9]),
    alpha=st.floats(0.05, 0.95),
    bad=st.integers(0, 11),
)
def test_pencil_terms_match_the_eigenvalue_oracle(seed, r, exponents, eps, alpha, bad):
    # Every family's trace and log-det form against its sum over the eigenvalues
    # of the generalized Hermitian solver, on pencils A = B + eps (A0 - B) with
    # per-column scales, and with one index where A is negative definite.  The
    # statistic drops and counts that index and any the PD screen fails; wide
    # scales can fail it, since its floor is relative to the trace.
    rng = np.random.default_rng(seed)
    half = 12
    x = rng.standard_normal((2, half, r, r + 4)) + 1j * rng.standard_normal((2, half, r, r + 4))
    b, a = x @ np.conj(np.swapaxes(x, -1, -2)) / (r + 4)
    a = b + eps * (a - b)
    scale = 10.0 ** np.array(exponents[:r])
    a, b = (m * scale[:, np.newaxis] * scale[np.newaxis, :] for m in (a, b))
    a[bad] *= -1.0
    fu = SpectralSequence.from_matrices("unrestricted", 2 * half + 1, a)
    fr = SpectralSequence.from_matrices("restricted", 2 * half + 1, b)
    others = [t for t in range(half) if t != bad]
    lam = np.array([relative_eigenvalues(fu.matrices[t], fr.matrices[t]) for t in others])
    kept = (fu.pd & fr.pd)[others]
    assert not fu.pd[bad]
    kinds = (KL, J, QUADRATIC, chernoff(alpha))
    pencil = (np.moveaxis(f.matrices, (-2, -1), (0, 1)) for f in (fu, fr))
    variants = [StatisticVariant(form="full", kind=kind) for kind in kinds]
    terms = _pencil_terms(kinds, *pencil)
    for kind, (raw, nonpd) in zip(kinds, raw_statistic(fu, fr, variants, 2)):
        want = eigenvalue_terms(kind, lam)
        assert terms[kind][others] == pytest.approx(want, rel=1e-9, abs=1e-11)
        assert nonpd == half - np.sum(kept)
        assert raw == pytest.approx(np.sum(want[kept]), rel=1e-9, abs=1e-11)


def test_standardize_centering_and_frozen_example():
    es = EtaSigma(eta=1.5, sigma2=1.0)
    n, m = 1001, 120
    centered = standardize((n / m) * 1.5, n, WeightKernel.flat(m), es, FULL)
    assert centered == pytest.approx(0.0, abs=1e-12)
    value = standardize(12.5, n, WeightKernel.flat(m), es, FULL)
    expected = math.sqrt(120.0 / 1001.0) * (12.5 - (1001.0 / 120.0) * 1.5)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(-0.00433, abs=5e-5)


def test_standardize_applies_curvature():
    es = EtaSigma(eta=1.5, sigma2=1.0)
    # J statistic has curvature 2: center at (n/m) * 2 * eta, scale by 2
    v1 = standardize(10.0, 1001, WeightKernel.flat(120), es, StatisticVariant(form="full", kind=J))
    manual = math.sqrt(120.0 / 1001.0) * (10.0 - (1001.0 / 120.0) * 3.0) / 2.0
    assert v1 == pytest.approx(manual, rel=1e-12)


def test_standardize_block_deflator():
    es = EtaSigma(eta=0.5, sigma2=1.0 / 3.0)
    n, m = 101, 16
    L = 2
    raw = 1.0
    got = standardize(raw, n, WeightKernel.flat(m), es, BLOCK)
    sig = math.sqrt(1.0 / 3.0)
    manual = (m / math.sqrt(L)) * (raw - (2.0 * L / m) * 0.5) / (math.sqrt(3.0) * sig)
    assert got == pytest.approx(manual, rel=1e-12)


def test_standardize_rejects_degenerate_variance():
    with pytest.raises(DegenerateVariance):
        EtaSigma(eta=1.0, sigma2=-1.0)


def test_standardize_takes_arrays_over_a_stack():
    rng = np.random.default_rng(5)
    raw, eta, sigma2 = rng.normal(10.0, 3.0, 7), rng.uniform(0.5, 2.0, 7), rng.uniform(0.5, 2.0, 7)
    kernel = WeightKernel.flat(120)
    for variant in (FULL, BLOCK, StatisticVariant(form="full", kind=J)):
        stacked = standardize(raw, 1001, kernel, EtaSigma(eta=eta, sigma2=sigma2), variant)
        assert stacked.shape == raw.shape
        for k in range(raw.size):
            single = standardize(float(raw[k]), 1001, kernel, EtaSigma(eta=float(eta[k]), sigma2=float(sigma2[k])),
                                 variant)
            assert type(single) is float and stacked[k] == single


def test_a_stack_raises_what_one_sample_raises():
    bad = ((math.inf, 1.0, ValueError), (math.nan, 1.0, ValueError),
           (1.0, 0.0, DegenerateVariance), (1.0, -1.0, DegenerateVariance), (1.0, math.nan, DegenerateVariance))
    for eta, sigma2, error in bad:
        with pytest.raises(error):
            EtaSigma(eta=eta, sigma2=sigma2)
        with pytest.raises(error):
            EtaSigma(eta=np.array([1.0, eta, 1.0]), sigma2=np.array([1.0, sigma2, 1.0]))
    # standardize checks sigma^2 itself, for constants that do not come as an EtaSigma
    with pytest.raises(DegenerateVariance):
        standardize(1.0, 101, WeightKernel.flat(8), SimpleNamespace(eta=1.0, sigma2=0.0), FULL)
    with pytest.raises(DegenerateVariance):
        standardize(np.ones(3), 101, WeightKernel.flat(8),
                    SimpleNamespace(eta=np.ones(3), sigma2=np.array([1.0, 0.0, 1.0])), FULL)
    # in the pipeline, an infinite weight phi makes eta non-finite and a zero one makes sigma^2 vanish
    samples = np.random.default_rng(6).standard_normal((3, 64, 2))
    for phi, error in ((lambda lam: math.inf, ValueError), (lambda lam: 0.0, DegenerateVariance)):
        variant = StatisticVariant(form="weighted", phi=phi)
        with np.errstate(invalid="ignore"):
            with pytest.raises(error):
                run_many(samples[0], IndependenceModel(), 8, [variant])
            with pytest.raises(error):
                _run_stack(samples, IndependenceModel(), WeightKernel.flat(8), [variant])


def test_normal_quantile_matches_ndtri():
    levels = np.linspace(1e-6, 1.0 - 1e-6, 20001)
    ours = np.array([normal_quantile(p) for p in levels])
    assert np.max(np.abs(ours - ndtri(levels))) <= 2e-15
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            normal_quantile(bad)


def test_decide():
    p0, rej0 = decide(0.0, 0.05, False)
    assert p0 == pytest.approx(0.5, abs=1e-12)
    assert not rej0
    crit = normal_quantile(0.95)
    assert crit == pytest.approx(1.6449, abs=5e-5)
    assert decide(crit + 1e-6, 0.05, False)[1]
    assert not decide(crit - 1e-6, 0.05, False)[1]
    p_forced, rej_forced = decide(-2.0, 0.05, True)
    assert p_forced == 0.0
    assert rej_forced
    # accuracy of the tail probability
    assert decide(2.0, 0.05, False)[0] == pytest.approx(0.02275013194817921, abs=1e-10)


def test_run_test_white_noise_report_shape():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((300, 3))
    report = run_test(z, IndependenceModel(), 24, FULL)
    assert report.n == 300
    assert report.m == 24
    assert report.eta_hat == pytest.approx(1.5)
    assert report.sigma2_hat == pytest.approx(1.0)
    assert np.isfinite(report.raw)
    assert np.isfinite(report.standardized)
    assert 0.0 <= report.p_value <= 1.0
    assert report.nonpd_count == 0
    assert not report.forced_reject
    assert report.alpha_level == 0.05


def test_run_test_scale_invariance_all_models():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((256, 3))
    graphical = GraphicalModel(EdgeSet.from_pairs(3, [(0, 1), (1, 2)]))
    for model in (IndependenceModel(), SeparableModel(), graphical):
        for variant in (FULL, QUAD, BLOCK):
            base = run_test(z, model, 20, variant).standardized
            scaled = run_test(100.0 * z, model, 20, variant).standardized
            assert abs(base - scaled) < 1e-8


def test_run_test_permutation_equivariance():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((200, 3))
    perm = [2, 0, 1]
    for model_builder in (IndependenceModel, SeparableModel):
        base = run_test(z, model_builder(), 16, FULL).standardized
        moved = run_test(z[:, perm], model_builder(), 16, FULL).standardized
        assert abs(base - moved) < 1e-8
    # graphical: relabel the edges along with the columns
    chain = GraphicalModel(EdgeSet.from_pairs(3, [(0, 1), (1, 2)]))
    # under perm, series (0,1,2) appear as columns (1,2,0): edge a-b maps to pos[a]-pos[b]
    pos = {old: new for new, old in enumerate(perm)}
    relabeled = GraphicalModel(
        EdgeSet.from_pairs(3, [(pos[0], pos[1]), (pos[1], pos[2])])
    )
    base = run_test(z, chain, 16, FULL).standardized
    moved = run_test(z[:, perm], relabeled, 16, FULL).standardized
    assert abs(base - moved) < 1e-8


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(64, 256),
    half_m=st.integers(2, 12),
    coupling=st.floats(-0.6, 0.6),
)
def test_run_test_time_reversal_invariance(seed, n, half_m, coupling):
    # Reversing time conjugates every DFT ordinate up to a phase, so each
    # periodogram matrix is replaced by its transpose and the relative
    # eigenvalues, hence every statistic, are unchanged.
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n + 1, 3))
    z = e[1:] + coupling * e[:-1] @ np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    chain = GraphicalModel(EdgeSet.from_pairs(3, [(0, 1), (1, 2)]))
    for model in (IndependenceModel(), SeparableModel(), chain):
        for variant in (FULL, QUAD, BLOCK):
            base = run_test(z, model, 2 * half_m, variant)
            flipped = run_test(z[::-1], model, 2 * half_m, variant)
            assert flipped.nonpd_count == base.nonpd_count
            assert flipped.raw == pytest.approx(base.raw, rel=1e-8)
            assert abs(flipped.standardized - base.standardized) <= 1e-8 * max(
                1.0, abs(base.standardized)
            )


def assert_same_reports(moved, base):
    for label, report in base.items():
        assert moved[label].nonpd_count == report.nonpd_count
        assert moved[label].raw == pytest.approx(report.raw, rel=1e-8)
        assert abs(moved[label].standardized - report.standardized) <= 1e-8 * max(
            1.0, abs(report.standardized)
        )


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    half_m=st.integers(4, 12),
    scales=st.lists(st.floats(-150.0, 150.0).map(lambda e: 10.0**e), min_size=3, max_size=3),
    perm=st.permutations([0, 1, 2]),
)
def test_run_many_scale_and_permutation_invariance(seed, half_m, scales, perm):
    # Scaling column a by c_a and relabelling the columns both act on every
    # spectral matrix by congruence, f -> P D f D P^T.  Each null's restricted
    # estimate follows the same congruence (the graphical null with its edges
    # relabelled), so the relative eigenvalues and every statistic stay put,
    # for column scales from 1e-150 to 1e150 as well.
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((161, 3))
    z = e[1:] + 0.4 * e[:-1] @ np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    pos = {old: new for new, old in enumerate(perm)}
    chain = [(0, 1), (1, 2)]
    models = [
        (IndependenceModel(), IndependenceModel()),
        (SeparableModel(), SeparableModel()),
        (
            GraphicalModel(EdgeSet.from_pairs(3, chain)),
            GraphicalModel(EdgeSet.from_pairs(3, [(pos[a], pos[b]) for a, b in chain])),
        ),
    ]
    variants = (FULL, QUAD, BLOCK)
    for model, relabelled in models:
        base = run_many(z, model, 2 * half_m, variants)
        assert_same_reports(run_many(z * np.array(scales), model, 2 * half_m, variants), base)
        assert_same_reports(run_many(z[:, perm], relabelled, 2 * half_m, variants), base)


@functools.lru_cache
def _tapered(m):
    """A from_function kernel of span m; its constants take a quadrature, so each span is built once."""
    return WeightKernel.from_function(lambda x: 2.0 - 4.0 * x * x, m)


# Two CVLL scores this close, relative to max(1, |score|), are a tie that rounding may break either way.
CVLL_TIE = 1e-9


@settings(max_examples=80, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), r=st.integers(2, 5), n=st.integers(64, 160))
def test_every_null_variant_and_kernel_keeps_its_invariances(data, seed, r, n):
    # Scaling the columns, relabelling them (with the graphical null's edges) and reversing time act on
    # every spectral matrix by congruence or conjugation, so every report stays put: any null, any edge
    # set with a pair absent (chordal or not), every form and kind, a flat, a tapered or a CVLL kernel.
    # A CVLL span may move only between two scores that tie to CVLL_TIE; the moved reports then match
    # the base sample's at the span chosen.
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)).filter(lambda k: not all(k)))
    null = data.draw(st.sampled_from(["independence", "separable", "graphical"]))
    perm = data.draw(st.permutations(range(r)))
    scales = 10.0 ** np.array(data.draw(st.lists(st.floats(-150.0, 150.0), min_size=r, max_size=r)))
    reverse = data.draw(st.booleans())
    kinds = (KL, J, QUADRATIC, chernoff(data.draw(st.floats(0.05, 0.95))))
    picks = data.draw(st.lists(st.tuples(st.sampled_from(VALID_FORMS), st.sampled_from(kinds)), min_size=1, max_size=6))
    variants = list({v.label: v for v in (StatisticVariant(form, kind, phi=lambda lam: 1.0 + math.cos(lam))
                                          for form, kind in picks)}.values())
    m = 2 * data.draw(st.integers((r + 1) // 2, 10))
    kernel = data.draw(st.sampled_from([WeightKernel.flat(m), _tapered(m), "cvll"]))
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n + 1, r))
    z = e[1:] + 0.5 * e[:-1] @ rng.standard_normal((r, r))
    pos = {old: new for new, old in enumerate(perm)}
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    if r > 3 and data.draw(st.booleans()):  # a cycle through every series, without a chord
        edges = [(i, i + 1) for i in range(r - 1)] + [(0, r - 1)]
    model, moved_model = {
        "independence": (IndependenceModel(), IndependenceModel()),
        "separable": (SeparableModel(), SeparableModel()),
        "graphical": (GraphicalModel(EdgeSet.from_pairs(r, edges)),
                      GraphicalModel(EdgeSet.from_pairs(r, [(pos[a], pos[b]) for a, b in edges]))),
    }[null]
    moved = (z * scales)[::-1 if reverse else 1][:, perm]
    base, got = run_many(z, model, kernel, variants), run_many(moved, moved_model, kernel, variants)
    span, moved_span = base[variants[0].label].m, got[variants[0].label].m
    if span != moved_span:
        scores = dict(cvll_select(z)[1])
        assert abs(scores[span] - scores[moved_span]) <= CVLL_TIE * max(1.0, abs(scores[span]))
        base = run_many(z, model, WeightKernel.flat(moved_span), variants)
    assert all(got[label].m == report.m for label, report in base.items())
    assert_same_reports(got, base)


def test_one_column_in_other_units_keeps_the_statistic():
    # White noise with its third column in units 1e7 or 1e9 apart from the others: the PD screen's
    # trace floor once failed every frequency there and forced a rejection.
    z = np.random.default_rng(37).standard_normal((512, 3))
    base = run_test(z, IndependenceModel(), 20, FULL)
    assert base.nonpd_count == 0
    for scale in (1e7, 1e9):
        report = run_test(z * np.array([1.0, 1.0, scale]), IndependenceModel(), 20, FULL)
        assert report.nonpd_count == 0 and not report.forced_reject
        assert report.standardized == pytest.approx(base.standardized, rel=1e-12)


def test_run_test_duplicate_columns_rejects():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(240)
    z = np.column_stack([x, x, rng.standard_normal(240)])
    report = run_test(z, IndependenceModel(), 20, FULL)
    assert report.reject
    # either the eigenvalue path blows up or the PD screen forces the call
    assert report.forced_reject or report.standardized > 10.0


def test_run_test_constant_column_forces_rejection():
    rng = np.random.default_rng(17)
    z = np.column_stack([np.ones(200), rng.standard_normal(200)])
    # demeaned constant column is identically zero
    z[:, 0] = 0.0
    report = run_test(z, IndependenceModel(), 16, FULL)
    assert report.forced_reject
    assert report.p_value == 0.0
    assert report.reject


def test_run_test_cvll_resolution(monkeypatch):
    import spectest.inference
    from spectest.spectral import cvll_select

    rng = np.random.default_rng(19)
    z = rng.standard_normal((128, 2))
    calls, original = [], spectest.inference.dft
    monkeypatch.setattr(spectest.inference, "dft", lambda values: calls.append(np.shape(values)) or original(values))
    report = run_test(z, IndependenceModel(), "cvll", FULL)
    assert calls == [(1, 128, 2)]  # one DFT serves the span search and the statistic
    assert report.m == cvll_select(z)[0]
    assert report == run_test(z, IndependenceModel(), report.m, FULL)


def test_run_test_rejects_a_non_integral_span():
    # a span that is not an integer raises, naming it, instead of running its truncation
    z = np.random.default_rng(41).standard_normal((201, 3))
    for span in (40.9, 40.0, "40"):
        with pytest.raises(ValueError, match=f"span m must be an integer, got {span!r}"):
            run_test(z, IndependenceModel(), span, FULL)
    report = run_test(z, IndependenceModel(), np.int64(40), FULL)
    assert report == run_test(z, IndependenceModel(), 40, FULL) and type(report.m) is int


@pytest.mark.parametrize("count", [None, 3])
def test_raw_statistic_is_the_same_on_either_layout(count):
    # The pipeline's sequences view frequency-last arrays, so the pencil reads contiguous stacks; the
    # same matrices stored frequency-first, as from_matrices keeps them, must give the same bits.  The
    # copies carry the inverse the restriction and the factor the smoothing screen handed the pencil,
    # with -A^{-1} too when the screen swept.  The pencil writes none of them, so one unrestricted
    # sequence serves every null and every call, twice over, with the same bits.
    rng = np.random.default_rng(43)
    n, r, m = 150, 4, 8
    e = rng.standard_normal((n + 1, r) if count is None else (count, n + 1, r))
    z = e[..., 1:, :] + 0.4 * e[..., :-1, :] @ rng.standard_normal((r, r))
    variants = [StatisticVariant("quadratic")] + [
        StatisticVariant(form, kind, phi=lambda lam: 1.0 + math.cos(lam))
        for form in ("full", "block", "weighted") for kind in (KL, J, QUADRATIC, chernoff(0.3))
    ]
    chain = EdgeSet.from_pairs(r, [(0, 1), (1, 2), (2, 3)])
    ring = EdgeSet.from_pairs(r, [(0, 1), (1, 2), (2, 3), (0, 3)])
    copy = lambda f: SpectralSequence.from_matrices(f.kind, n, np.ascontiguousarray(f.matrices))
    for inverse in (False, True):
        fu = smoothed_periodogram(z, WeightKernel.flat(m), inverse=inverse)
        assert (fu._factor[0] is not None) == inverse
        fu_copy = SpectralSequence._trusted(fu.kind, n, copy(fu).matrices, copy(fu).pd, factor=fu._factor)
        for model in (IndependenceModel(), SeparableModel(), GraphicalModel(chain), GraphicalModel(ring)):
            fr = model.restricted_estimate(fu, model.estimate_theta(z))
            for f in (fu, fr):
                assert np.moveaxis(f.matrices, (-2, -1), (0, 1)).flags.c_contiguous
                assert np.array_equal(copy(f).pd, f.pd)
            fr_copy = SpectralSequence._trusted(fr.kind, n, copy(fr).matrices, copy(fr).pd, fr._scaled_inverse)
            first = raw_statistic(fu, fr, variants, m)
            for pair in ((fu, fr), (fu_copy, fr_copy), (fu, fr), (fu_copy, fr_copy)):
                for (raw, nonpd), (raw_first, nonpd_first) in zip(raw_statistic(*pair, variants, m), first):
                    assert np.asarray(raw).tobytes() == np.asarray(raw_first).tobytes()
                    assert np.array_equal(nonpd, nonpd_first)


class _Swept:
    """A null whose restricted sequences drop the inverse their restriction hands the pencil."""

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        return getattr(self.model, name)

    def restricted_estimate(self, f_unrestricted, theta=None):
        fr = self.model.restricted_estimate(f_unrestricted, theta)
        return SpectralSequence._trusted(fr.kind, fr.n, fr.matrices, fr.pd)


def test_handed_inverse_keeps_the_swept_reports():
    # Independence reports keep every bit of the path that sweeps B; separable ones, whose B is swept
    # once per sample as Sigma's correlation matrix, move by rounding only.
    z = np.random.default_rng(47).standard_normal((3, 301, 4)) @ np.triu(np.ones((4, 4)))
    variants = [QUAD] + [StatisticVariant(form, kind, phi=(lambda lam: 1.0 + lam) if form == "weighted" else None)
                         for form in ("full", "block", "weighted") for kind in (KL, J, chernoff(0.3))]
    for m in (8, 30, "cvll"):
        for model in (IndependenceModel(), SeparableModel()):
            handed, swept = (run_many(z[0], null, m, variants) for null in (model, _Swept(model)))
            rows = [_run_samples(z, null, m, variants)[1] for null in (model, _Swept(model))]
            if model.name == "independence":
                assert handed == swept
                assert rows[0].tobytes() == rows[1].tobytes()
            else:
                for label, report in handed.items():
                    assert report.raw == pytest.approx(swept[label].raw, rel=1e-12)
                    assert report.standardized == pytest.approx(swept[label].standardized, rel=1e-12, abs=1e-12)
                np.testing.assert_allclose(rows[0], rows[1], rtol=1e-12, atol=1e-12)


def test_variants_must_have_distinct_labels():
    # the label keys the reports and ignores phi, so two weighted variants cannot share one silently
    z = np.random.default_rng(53).standard_normal((101, 3))
    twins = [StatisticVariant("weighted", phi=lambda lam: 1.0), StatisticVariant("weighted", phi=lambda lam: 1.0 + lam)]
    for variants in (twins, [FULL, QUAD, FULL]):
        with pytest.raises(ValueError) as caught:
            run_many(z, IndependenceModel(), 8, variants)
        label = variants[0].label
        assert str(caught.value) == f"statistic variants must have distinct labels, {label!r} is repeated"


def test_run_many_shares_pipeline():
    rng = np.random.default_rng(23)
    z = rng.standard_normal((256, 2))
    doubled = StatisticVariant(form="weighted", phi=lambda lam: 2.0)
    reports = run_many(z, IndependenceModel(), 20, (FULL, QUAD, BLOCK, doubled))
    assert set(reports) == {"full-kl", "quadratic", "block-kl", "weighted-kl"}
    solo = run_test(z, IndependenceModel(), 20, QUAD)
    assert reports["quadratic"].standardized == pytest.approx(solo.standardized, rel=1e-14)
    assert reports["quadratic"].raw == pytest.approx(solo.raw, rel=1e-14)
    # phi = 2 doubles the sum and eta and quadruples sigma^2, so the standardized value stays
    full, weighted = reports["full-kl"], reports["weighted-kl"]
    assert (weighted.raw, weighted.eta_hat, weighted.sigma2_hat) == pytest.approx(
        (2.0 * full.raw, 2.0 * full.eta_hat, 4.0 * full.sigma2_hat), rel=1e-14)
    assert weighted.standardized == pytest.approx(full.standardized, rel=1e-12)


def test_run_many_solves_each_pencil_once(monkeypatch):
    import spectest.inference

    calls = []
    original = spectest.inference._pencil_terms

    def counted(kinds, a, b, inverse, factor):
        calls.append((a.shape[-1], inverse is not None, factor[0] is not None, np.shape(factor[1])))
        return original(kinds, a, b, inverse, factor)

    monkeypatch.setattr(spectest.inference, "_pencil_terms", counted)
    z = np.random.default_rng(31).standard_normal((201, 3))
    reports = run_many(z, IndependenceModel(), 30, (FULL, QUAD, BLOCK))
    assert len(reports) == 3
    run_many(z, IndependenceModel(), 30, (FULL, StatisticVariant("full", kind=J)))
    # the restriction handed it B's inverse, and the smoothing screen A's log det and, for j, A's inverse
    assert calls == [(100, True, False, (1, 100)), (100, True, True, (1, 100))]


KERNEL_MODELS = {
    "independence": IndependenceModel(),
    "separable": SeparableModel(),
    "graphical": GraphicalModel(EdgeSet.from_pairs(3, [(0, 1), (1, 2)])),
}


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_run_many_takes_a_weight_kernel(name):
    # columns in units far apart, so a report that skipped the equilibration would miss some bits
    z = np.random.default_rng(53).standard_normal((201, 3)) * np.array([1e3, 1.0, 3e-4])
    model, variants = KERNEL_MODELS[name], (FULL, QUAD, BLOCK, StatisticVariant("full", kind=J))
    assert run_many(z, model, WeightKernel.flat(16), variants) == run_many(z, model, 16, variants)
    bump = WeightKernel.from_function(lambda x: 1.0 + np.cos(math.pi * x), 16)
    reports = run_many(z, model, bump, variants)
    rows = _run_stack(_equilibrate(z[np.newaxis]), model, bump, variants)
    assert rows.shape == (len(variants), len(FIELDS), 1)
    for variant, row in zip(variants, rows):
        report, row = reports[variant.label], dict(zip(FIELDS, row))
        assert report.m == 16
        assert (report.raw, report.standardized, report.nonpd_count) == (row["raw"][0], row["standardized"][0],
                                                                         row["nonpd"][0])
        assert (report.eta_hat, report.sigma2_hat) == (row["eta"][0], row["sigma2"][0])


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_run_many_reports_keep_their_json_types(name):
    # the pipeline's float array is unpacked into Python ints, bools and floats, as json.dumps writes them
    rng = np.random.default_rng(59)
    plain = rng.standard_normal((128, 3))
    collinear = plain.copy()
    collinear[:, 2] = collinear[:, 0]  # a singular unrestricted estimate: every frequency forces the call
    types = {"nonpd_count": int, "m": int, "n": int, "reject": bool, "forced_reject": bool}
    variants = (FULL, QUAD, BLOCK, StatisticVariant("weighted", phi=lambda lam: 1.0 + lam))
    cases = ((plain, False), (collinear, True))
    for z, forced in cases[:1] if name == "separable" else cases:  # theta of a collinear sample raises there
        for report in run_many(z, KERNEL_MODELS[name], 16, variants).values():
            assert report.forced_reject is forced and (report.nonpd_count > 0) is forced
            for field, value in vars(report).items():
                assert type(value) is types.get(field, float), field


def test_run_many_rejects_short_samples():
    with pytest.raises(ValueError):
        run_many(np.zeros((6, 2)), IndependenceModel(), 2, (FULL,))


def test_run_many_checks_alpha_before_any_work(monkeypatch):
    import spectest.inference

    def refuse(*args, **kwargs):
        raise AssertionError("the CVLL search ran before alpha_level was checked")

    monkeypatch.setattr(spectest.inference, "cvll_select", refuse)
    z = np.random.default_rng(37).standard_normal((64, 2))
    for alpha in (0.0, 1.5):
        with pytest.raises(ValueError, match=rf"alpha_level must lie in \(0, 1\), got {alpha}"):
            run_many(z, IndependenceModel(), "cvll", (FULL,), alpha_level=alpha)


def test_chernoff_variant_end_to_end():
    rng = np.random.default_rng(29)
    z = rng.standard_normal((200, 2))
    variant = StatisticVariant(form="full", kind=chernoff(0.3))
    report = run_test(z, IndependenceModel(), 16, variant)
    assert np.isfinite(report.standardized)
    # curvature alpha (1 - alpha) = 0.21 scales the centering
    assert report.eta_hat == pytest.approx(0.5)
