"""Tests for the complex Hermitian PD helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ODD_DIAGONALS, block_eliminate, column_screen, eliminate_by_division, logdet, relative_eigenvalues
from spectest.errors import NotPositiveDefinite
from spectest.hermitian import (
    _eliminate,
    _frequency_first,
    _frequency_last,
    _lower,
    _sweep,
    as_hermitian,
    inverse_pd,
    is_positive_definite,
    relative_eigenvalues_stack,
)


def random_hpd(rng, r, shift=0.5):
    x = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    a = x @ x.conj().T
    return a + shift * np.eye(r)


def test_logdet_frozen_values():
    assert logdet(np.diag([2.0, 2.0])) == pytest.approx(2.0 * np.log(2.0), abs=1e-14)
    assert logdet(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(np.log(3.0), abs=1e-14)


def test_inverse_frozen_complex_example():
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    expected = np.array([[2.0, -1j], [1j, 2.0]]) / 3.0
    assert np.allclose(inverse_pd(a), expected, atol=1e-14)


def test_relative_eigenvalues_against_identity():
    lams = relative_eigenvalues_stack(np.diag([3.0, 1.0])[np.newaxis], np.eye(2)[np.newaxis])[0]
    assert np.allclose(lams, [1.0, 3.0], atol=1e-14)


def test_logdet_matches_determinant_oracle():
    rng = np.random.default_rng(101)
    for _ in range(50):
        a = random_hpd(rng, 4)
        det = np.linalg.det(a)
        assert abs(det.imag) < 1e-8 * abs(det.real)
        assert logdet(a) == pytest.approx(np.log(det.real), rel=1e-10)


def test_inverse_pd_roundtrip():
    rng = np.random.default_rng(7)
    stack = np.stack([random_hpd(rng, 5) for _ in range(25)])
    for a in stack:
        assert np.allclose(a @ inverse_pd(a), np.eye(5), atol=1e-10)
    stacked = inverse_pd(stack)
    for a, inv in zip(stack, stacked):
        single = inverse_pd(a)
        assert np.max(np.abs(inv - single)) <= 1e-12 * np.max(np.abs(single))


def test_inverse_pd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        inverse_pd(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        inverse_pd(np.stack([np.eye(2), np.diag([1.0, -1.0])]))


def test_relative_eigenvalues_congruence_invariance():
    # eig(A, B) is invariant under A -> S A S^H, B -> S B S^H.
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = random_hpd(rng, 3)
        b = random_hpd(rng, 3)
        s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        base, moved = relative_eigenvalues_stack(
            np.stack([a, s @ a @ s.conj().T]), np.stack([b, s @ b @ s.conj().T])
        )
        assert np.allclose(base, moved, rtol=1e-9, atol=1e-11)


def test_relative_eigenvalues_trace_identity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = random_hpd(rng, 4)
        b = random_hpd(rng, 4)
        lams = relative_eigenvalues_stack(a[np.newaxis], b[np.newaxis])[0]
        assert np.sum(lams) == pytest.approx(np.trace(inverse_pd(b) @ a).real, rel=1e-10)
        assert np.all(lams > 0)


def test_relative_eigenvalues_stack_matches_scalar_path():
    rng = np.random.default_rng(47)
    a = np.stack([random_hpd(rng, 3) for _ in range(40)])
    b = np.stack([random_hpd(rng, 3) for _ in range(40)])
    stacked = relative_eigenvalues_stack(a, b)
    assert stacked.shape == (40, 3)
    for t in range(40):
        assert np.allclose(stacked[t], relative_eigenvalues(a[t], b[t]), rtol=1e-9, atol=1e-11)


def test_is_positive_definite_matches_eigensolver():
    rng = np.random.default_rng(59)
    hits = 0
    for _ in range(100):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (x + x.conj().T) / 2.0
        eigs = np.linalg.eigvalsh(h)
        # stay away from the numerical boundary
        if np.min(np.abs(eigs)) < 1e-6:
            continue
        hits += 1
        assert is_positive_definite(h) == bool(np.min(eigs) > 0)
    assert hits > 50


def test_is_positive_definite_stack_matches_per_matrix():
    rng = np.random.default_rng(61)
    x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    floor = 1e-12 * 3.0 / 4.0  # tol * trace / r for diag(1, 1, 1, d), d tiny
    cases = [
        (random_hpd(rng, 4), True),
        (x @ x.conj().T, False),  # rank 2
        (1e8 * random_hpd(rng, 4), True),
        (-random_hpd(rng, 4), False),
        (np.diag([1.0, 1.0, 1.0, 2.0 * floor]), True),
        (np.diag([1.0, 1.0, 1.0, 0.5 * floor]), False),
        (np.diag([1.0, 1.0, 1.0, 0.0]), False),
        (1e-8 * random_hpd(rng, 4), True),
    ]
    stack = np.stack([a for a, _ in cases])
    flags = is_positive_definite(stack)
    assert flags.dtype == bool and flags.shape == (len(cases),)
    for (a, expected), flag in zip(cases, flags):
        assert is_positive_definite(a) is expected
        assert flag == expected
    assert np.array_equal(is_positive_definite(stack.reshape(2, 4, 4, 4)), flags.reshape(2, 4))


def adversarial_stack(rng, r):
    """Matrices on and around every edge of the screen, with the verdict each should get."""
    floor = 1e-12 * (r - 1) / r  # tol * trace / r for diag(1, ..., 1, d), d tiny
    x = rng.standard_normal((r, r - 1)) + 1j * rng.standard_normal((r, r - 1))
    cases = [
        (random_hpd(rng, r), True),
        (1e8 * random_hpd(rng, r), True),
        (1e-8 * random_hpd(rng, r), True),
        (np.zeros((r, r)), False),
        (-random_hpd(rng, r), False),
        (np.full((r, r), np.nan), False),
    ]
    if r > 1:
        a = random_hpd(rng, r)
        a[0, r - 1] = a[r - 1, 0] = np.nan
        mix = np.eye(r, r - 1) + 0.3 * rng.standard_normal((r, r - 1))
        cases += [
            (x @ x.conj().T, False),  # singular, rank r - 1
            (mix @ mix.T, False),  # collinear: one column mixes the others
            (np.diag([1.0] * (r - 1) + [floor * (1.0 + 1e-3)]), True),
            (np.diag([1.0] * (r - 1) + [floor * (1.0 - 1e-3)]), False),
            (np.diag([1.0] * (r - 1) + [-3.0 * r]), False),  # negative trace
            (a, False),
        ]
        # unit lower L, pivots (1, ..., 1, floor (1 +- 1e-3)): the last pivot
        # comes out of r - 1 eliminations, with rounding near the margin, so
        # real and complex copies may differ and only the oracle decides
        lower = np.tril(rng.standard_normal((r, r)), -1) + np.eye(r)
        pivots = np.ones(r)
        pivots[-1] = 0.0
        edge = 1e-12 * np.trace(lower @ np.diag(pivots) @ lower.T) / r
        for factor in (1.0 + 1e-3, 1.0 - 1e-3):
            pivots[-1] = edge * factor
            cases.append((lower @ np.diag(pivots) @ lower.T, None))
    return cases


@pytest.mark.parametrize("r", [1, 2, 3, 8])
def test_is_positive_definite_matches_column_screen(r):
    rng = np.random.default_rng(100 + r)
    cases = adversarial_stack(rng, r)
    stack = np.stack([a for a, _ in cases])
    flags = is_positive_definite(stack)
    assert flags.dtype == bool and flags.shape == (len(cases),)
    assert np.array_equal(flags, column_screen(stack))
    for (a, expected), flag in zip(cases, flags):
        single = is_positive_definite(a)
        assert type(single) is bool and single == column_screen(a)
        if expected is not None:
            assert single is expected and flag == expected
    complex_stack = stack.astype(complex)
    assert np.array_equal(is_positive_definite(complex_stack), flags)
    twice = np.stack([stack, stack[::-1]])
    assert np.array_equal(is_positive_definite(twice), column_screen(twice))


def ldl_stack(rng, s, is_complex):
    """A frequency-last (s, s, 3, 7) Hermitian stack L D L^H with unit lower L and pivots D of
    both signs, zero, and tiny ones near the floor, so some verdicts fail."""
    shape = (s, s, 3, 7)
    lower = np.tril(np.moveaxis(rng.standard_normal(shape), (0, 1), (-2, -1)), -1) + np.eye(s)
    if is_complex:
        lower = lower + 1j * np.tril(np.moveaxis(rng.standard_normal(shape), (0, 1), (-2, -1)), -1)
    pivots = rng.choice([2.0, 1.0, 0.5, 1e-13, 0.0, -1.0], size=shape[2:] + (s,),
                        p=[0.3, 0.3, 0.2, 0.1, 0.05, 0.05])
    product = (lower * pivots[..., np.newaxis, :]) @ np.conj(np.swapaxes(lower, -1, -2))
    return np.moveaxis(product, (-2, -1), (0, 1))


def schur_tail(packed, s, r):
    """The trailing columns of a packed stack eliminated r columns deep: the Schur complement's lower triangle."""
    return packed[len(packed) - (s - r) * (s - r + 1) // 2 :]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 5),
    data=st.data(),
    is_complex=st.booleans(),
    garbage=st.sampled_from(["random", "nan"]),
)
def test_eliminate_ignores_the_strict_upper_triangle(seed, s, data, is_complex, garbage):
    # _lower packs the lower triangle only: with garbage above the diagonal the
    # packed kernel gives the full-block kernel's bits on the Hermitian stack.
    r = data.draw(st.integers(1, s))
    rng = np.random.default_rng(seed)
    hermitian = ldl_stack(rng, s, is_complex)
    noisy = hermitian.copy()
    upper = np.triu_indices(s, 1)
    noisy[upper] = np.nan if garbage == "nan" else rng.standard_normal(noisy[upper].shape) * 1e3
    packed = _lower(noisy)
    ok, logdet_ = _eliminate(packed, r)
    ok_ref, logdet_ref, rest_ref = block_eliminate(hermitian, r)
    assert ok.dtype == bool and np.array_equal(ok, ok_ref)
    assert logdet_.tobytes() == logdet_ref.tobytes()
    # the trailing columns hold the Schur complement's lower triangle, column by column
    tail = schur_tail(packed, s, r)
    assert tail.tobytes() == b"".join(rest_ref[j:, j].tobytes() for j in range(s - r))
    screened = is_positive_definite(np.moveaxis(noisy, (0, 1), (-2, -1)))
    assert np.array_equal(screened, block_eliminate(hermitian, s)[0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 5), data=st.data(),
       dtype=st.sampled_from(["complex", "real", "real as complex"]))
def test_eliminate_keeps_the_bits_of_division_by_the_pivot(seed, s, data, dtype):
    # A complex column is scaled by 1 / pivot, which numpy's complex division by (pivot, 0)
    # also computes: every entry that passes the screen keeps its log det and Schur complement
    # bits.  A failed entry may not (x / 0 and x * (1 / 0) differ in the complex loop).  A real
    # stack keeps true division and so every bit.
    r = data.draw(st.integers(1, s))
    hermitian = ldl_stack(np.random.default_rng(seed), s, dtype == "complex")
    packed = _lower(hermitian.astype(complex) if dtype == "real as complex" else hermitian)
    reference = packed.copy()
    ok, logdet_ = _eliminate(packed, r)
    ok_ref, logdet_ref = eliminate_by_division(reference, r)
    assert np.array_equal(ok, ok_ref)
    tail, tail_ref = schur_tail(packed, s, r), schur_tail(reference, s, r)
    if dtype == "real":
        assert logdet_.tobytes() == logdet_ref.tobytes() and tail.tobytes() == tail_ref.tobytes()
    else:
        assert logdet_[ok].tobytes() == logdet_ref[ok].tobytes()
        assert tail[:, ok].tobytes() == tail_ref[:, ok].tobytes()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 8),
    lead=st.sampled_from([(), (5,), (2, 3)]),
    is_complex=st.booleans(),
    diagonal=st.booleans(),
    data=st.data(),
)
def test_sweep_screens_as_the_elimination(seed, r, lead, is_complex, diagonal, data):
    # A natural-order sweep does the elimination's arithmetic on the trailing lower triangle, so its
    # verdict and log det are _eliminate's bit for bit: on one matrix or a stack, with columns scaled
    # by up to e^20 either way and odd diagonal entries, among them subnormal pivots whose reciprocal
    # overflows (a diagonal matrix keeps such a pivot to the end).
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((r, r + 1) + lead)
    if is_complex:
        x = x + 1j * rng.standard_normal(x.shape)
    a = np.einsum("ik...,jk...->ij...", x, np.conj(x))
    if diagonal:
        a *= np.eye(r).reshape((r, r) + (1,) * len(lead))
    scale = np.exp(rng.uniform(-20.0, 20.0, (r,) + lead))
    a *= scale * scale[:, np.newaxis]
    upper = np.triu_indices(r, 1)
    a[upper] = np.conj(np.swapaxes(a, 0, 1)[upper])  # exactly Hermitian, as the pipeline's stacks are
    picks = data.draw(st.lists(st.sampled_from(ODD_DIAGONALS + [None] * 4), min_size=r, max_size=r))
    for k, value in enumerate(picks):
        if value is not None:
            a[(k, k) + tuple(rng.integers(0, n) for n in lead)] = value
    with np.errstate(all="ignore"):
        ok, logdet_ = _sweep(a.copy())
        ok_ref, logdet_ref = _eliminate(_lower(a), r)
    assert np.shape(ok) == np.shape(ok_ref) == lead and np.asarray(ok).dtype == bool
    assert np.asarray(ok).tobytes() == np.asarray(ok_ref).tobytes()
    assert np.asarray(logdet_).tobytes() == np.asarray(logdet_ref).tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 8), is_complex=st.booleans(), flip=st.booleans(),
       data=st.data())
def test_one_matrix_keeps_its_bits_from_a_stack(seed, s, is_complex, flip, data):
    # A matrix alone, as an (s, s, 1) stack or an (s, s) matrix, has the elimination's verdict and log det
    # and the sweep's -A^{-1} of the same matrix in an 8-frequency stack, byte for byte, NaN included where
    # it is not PD.  numpy takes another loop for one frequency: complex eliminations of (s, s, 1) stacks
    # differed from the stack's in about 5% of draws until they ran as two copies.
    rng = np.random.default_rng(seed)
    r = data.draw(st.integers(1, s))
    x = rng.standard_normal((s, s + 1, 8))
    if is_complex:
        x = x + 1j * rng.standard_normal(x.shape)
    stack = np.einsum("ik...,jk...->ij...", x, np.conj(x))
    t = seed % 8
    if flip:
        stack[..., t] *= -1.0
    with np.errstate(all="ignore"):
        ok, logdet_ = _eliminate(_lower(stack), r)
        swept = stack.copy()
        _sweep(swept)
        for single in (stack[..., t : t + 1], stack[..., t]):
            got = _eliminate(_lower(single), r)
            assert np.asarray(got[0]).tobytes() == ok[..., t : t + 1].tobytes()
            assert np.asarray(got[1]).tobytes() == logdet_[..., t : t + 1].tobytes()
            single = single.copy()
            _sweep(single)
            assert single.tobytes() == swept[..., t : t + 1].tobytes()


@pytest.mark.parametrize("ndim", [2, 3, 4])
def test_frequency_transposes_are_the_moveaxis_views(ndim):
    # Each fixed-axis transpose gives np.moveaxis's view, shape, strides and base alike, on a strided
    # input whose axes all differ in length, and each inverts the other.
    a = np.arange(2.0 * 3 * 4 * 10).reshape(2, 3, 4, 10)[..., ::2][(0,) * (4 - ndim)]
    for got, want in ((_frequency_last(a), np.moveaxis(a, (-2, -1), (0, 1))),
                      (_frequency_last(a, 1), np.moveaxis(a, -1, 0)),
                      (_frequency_first(a), np.moveaxis(a, (0, 1), (-2, -1)))):
        assert (got.shape, got.strides) == (want.shape, want.strides)
        assert got.base is want.base and got.base is not None
        assert np.array_equal(got, want)
    for there_and_back in (_frequency_first(_frequency_last(a)), _frequency_last(_frequency_first(a))):
        assert (there_and_back.shape, there_and_back.strides) == (a.shape, a.strides)
        assert np.shares_memory(there_and_back, a) and np.array_equal(there_and_back, a)


def test_as_hermitian_symmetrizes_and_validates():
    a = np.array([[1.0, 2.0 + 1e-14j], [2.0 - 1e-14j, 3.0]])
    out = as_hermitian(a)
    assert np.array_equal(out, out.conj().T)
    with pytest.raises(ValueError):
        as_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))
    stack = np.stack([a, 1e6 * a])
    assert np.array_equal(as_hermitian(stack), np.stack([out, 1e6 * out]))
    with pytest.raises(ValueError):
        as_hermitian(np.stack([a, np.array([[1.0, 2.0], [0.0, 1.0]])]))
    with pytest.raises(ValueError):
        as_hermitian(np.ones((2, 2, 3)))


def test_relative_eigenvalues_needs_pd_base():
    with pytest.raises(NotPositiveDefinite):
        relative_eigenvalues_stack(
            np.stack([np.eye(2)] * 2), np.stack([np.eye(2), np.diag([1.0, -2.0])])
        )
    with pytest.raises(ValueError) as caught:
        relative_eigenvalues_stack(np.eye(3)[np.newaxis], np.eye(2)[np.newaxis])
    assert type(caught.value) is ValueError and str(caught.value) == "shape mismatch: (1, 3, 3) vs (1, 2, 2)"

