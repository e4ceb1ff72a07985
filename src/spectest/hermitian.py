"""Hermitian positive definite matrix kernel.

Everything downstream (spectral estimates, divergences, test statistics)
manipulates small Hermitian matrices, typically 2x2 to 5x5, in bulk.  This
module wraps the few LAPACK primitives we need behind a consistent error
surface, plus the elementwise LDL^H eliminations and sweeps on frequency-last
(r, r, ...) stacks that give the statistics their log-dets and inverses.  The
eigenvalues of B^{-1} A for Hermitian A and positive definite B ("relative
eigenvalues") are the eigenvalue-level view of the same pencils.

Positive definiteness is decided by LDL^H pivots against a floor relative to
the mean eigenvalue, so the verdict is scale free; `_pd_floor` states the rule
and every screen takes it from there.  The elimination runs in place on the
packed lower triangle; a sweep updates the full stack a row at a time and, in
natural order, finds the same pivots, so one sweep gives a matrix's verdict,
log-det and inverse.  Only `inverse_pd` and `relative_eigenvalues_stack` still
call LAPACK; the test pipeline calls neither.  The screen, the inverse and the
Hermitian check take one (r, r) matrix or an (..., r, r) stack alike; that
check runs once, where matrix input enters the library, as the pipeline's own
estimates are exactly Hermitian by construction.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NotPositiveDefinite

DEFAULT_PD_TOL = 1e-12


def _conj_t(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def _frequency_last(a: np.ndarray, axes: int = 2) -> np.ndarray:
    """np.moveaxis(a, (-2, -1), (0, 1)), or with axes = 1 np.moveaxis(a, -1, 0): the last axes first."""
    return a.transpose((*range(a.ndim - axes, a.ndim), *range(a.ndim - axes)))


def _frequency_first(a: np.ndarray) -> np.ndarray:
    """np.moveaxis(a, (0, 1), (-2, -1)), which _frequency_last inverts: the first two axes last."""
    return a.transpose((*range(2, a.ndim), 0, 1))


def _check_hermitian(a: np.ndarray, tol: float) -> None:
    """Raise ValueError unless max|A - A^H| <= tol * max(1, max|A|) for every matrix A of a."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    drift = np.abs(a - _conj_t(a))
    bound = tol * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1), keepdims=True, initial=0.0))
    if np.any(drift > bound):
        bound = np.broadcast_to(bound, drift.shape)
        worst = np.unravel_index(np.argmax(drift / bound), drift.shape)
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {drift[worst]:.3e} exceeds "
            f"tolerance {bound[worst]:.3e}"
        )


def as_hermitian(a, tol: float = 1e-12) -> np.ndarray:
    """Validate near-Hermitian input and return its exact Hermitian part.

    Parameters
    ----------
    a : array_like, shape (r, r) or (..., r, r)
        Matrix, or stack of matrices, expected to be Hermitian up to
        floating point drift.
    tol : float
        Maximum allowed relative asymmetry of each matrix, measured as
        max|A - A^H| / max(1, max|A|).

    Returns
    -------
    ndarray
        (A + A^H) / 2, with exactly real diagonal.
    """
    a = np.asarray(a)
    _check_hermitian(a, tol)
    return (a + _conj_t(a)) / 2.0


def _lower(a: np.ndarray) -> np.ndarray:
    """The lower triangle of a frequency-last (s, s, ...) stack, packed column by column for _eliminate
    into one C-contiguous copy, as the kernel runs about twice as slow on strided columns."""
    return np.ascontiguousarray(np.concatenate([a[j:, j] for j in range(len(a))]), np.result_type(a.dtype, float))


def _divide(x: np.ndarray, pivot: np.ndarray, out=None) -> np.ndarray:
    """x / pivot for real pivots: complex x takes x * (1 / pivot), which is what numpy's complex
    division by (pivot, 0) computes, so every finite nonzero quotient keeps its bits at less cost;
    real x keeps true division, as the reciprocal would round some quotients differently."""
    return np.multiply(x, 1.0 / pivot, out=out) if x.dtype.kind == "c" else np.divide(x, pivot, out=out)


def _pd_floor(diagonal) -> tuple:
    """(ok, floors) of the PD rule for r x r matrices whose real diagonal is diagonal, r arrays in column order: a
    matrix passes where ok, trace > 0, holds and each pivot k exceeds floors[k] = DEFAULT_PD_TOL * trace / r."""
    trace = functools.reduce(np.add, diagonal)
    return trace > 0.0, [DEFAULT_PD_TOL * trace / len(diagonal)] * len(diagonal)


def _eliminate(w: np.ndarray, r: int):
    """LDL^H elimination, in place, of the first r columns of a packed lower-triangle stack.

    Entry (i, j), j <= i, of each s x s matrix sits at w[j s - j(j - 1)/2 + i - j], frequency last,
    so a column is one contiguous slice; no upper triangle is stored or read.  Returns (ok, logdet): ok
    where the leading r x r block passes _pd_floor's rule, and its sum of log pivots.  The trailing
    columns of w are left holding A22 - A21 A11^{-1} A12.
    """
    if w.ndim > 1 and w[0].size == 1:  # one frequency runs as two, as numpy's loop for one element can
        pair = np.concatenate([w, w], axis=-1)  # round a complex product other than a stack's
        ok, logdet = _eliminate(pair, r)
        w[...] = pair[..., :1]
        return ok[..., :1], logdet[..., :1]
    s = int((2 * len(w)) ** 0.5)  # len(w) = s(s + 1)/2, and column j starts at j s - j(j - 1)/2
    columns = [w[j * s - j * (j - 1) // 2 : (j + 1) * (2 * s - j) // 2] for j in range(s)]
    ok, floors = _pd_floor([column[0].real for column in columns[:r]])
    logdet = np.zeros_like(floors[0])
    # Once a matrix has failed, its later (possibly non-finite) pivots are ignored.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, column in enumerate(columns[:r]):
            pivot = column[0].real
            ok &= pivot > floors[k]
            logdet += np.log(pivot)
            scaled = _divide(column[1:], pivot)
            np.conj(scaled, out=scaled)
            for j, later in enumerate(columns[k + 1 :]):
                later -= column[1 + j :] * scaled[j]
    return ok, logdet


def _unit_scale(diagonal: np.ndarray) -> np.ndarray:
    """s = 1 / sqrt(diagonal): s_i B_ik s_k has a unit diagonal.  The pencil and the restrictions that
    hand it their inverse both scale by it, so their pivots have the same bits."""
    return 1.0 / np.sqrt(diagonal)


def _sweep(a: np.ndarray):
    """Sweep every index of a frequency-last (r, r, ...) Hermitian stack in place; returns (ok, logdet).

    Leaves -A^{-1} in a (Goodnight, 1979); it and log det are meaningless where ok is False.  In
    natural order the sweep does _eliminate's arithmetic on the trailing lower triangle, so its pivots,
    and with them ok and log det, are the elimination's bit for bit.  Row i takes a[i] - a[i, k]
    conj(a[:, k] / pivot) for pivot k through one (r, ...) buffer, so no temporary is larger than a
    row; row k, which the pivot's values replace, is not updated.
    """
    r = len(a)
    ok, floors = _pd_floor([a[k, k].real for k in range(r)])
    scaled, product, logdet = np.empty(a.shape[1:], a.dtype), np.empty(a.shape[1:], a.dtype), np.zeros(a.shape[2:])
    for k in range(r):
        pivot = a[k, k].real.copy()
        ok &= pivot > floors[k]
        logdet += np.log(pivot)
        np.conj(_divide(a[:, k], pivot, out=scaled), out=a[k])  # no other row reads row k
        for i in [*range(k), *range(k + 1, r)]:
            a[i] -= np.multiply(a[i, k], a[k], out=product)
        a[:, k] = scaled
        a[k, k] = -1.0 / pivot
    return ok, logdet


def is_positive_definite(a):
    """True iff every LDL^H pivot passes _pd_floor's rule; a stack gives an array."""
    a = np.asarray(a)
    ok = _eliminate(_lower(_frequency_last(a)), a.shape[-1])[0]
    return ok if a.ndim > 2 else bool(ok)


def inverse_pd(a) -> np.ndarray:
    """Inverse of a Hermitian positive definite matrix or stack, re-symmetrized."""
    a = np.asarray(a)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("inverse needs a positive definite matrix") from exc
    # A^{-1} = L^{-H} L^{-1}
    chol_inv = np.linalg.inv(chol)
    inv = _conj_t(chol_inv) @ chol_inv
    return (inv + _conj_t(inv)) / 2.0


def relative_eigenvalues_stack(a_stack, b_stack) -> np.ndarray:
    """Eigenvalues of B^{-1} A for aligned (t, r, r) stacks of A and B.

    A must be Hermitian and B Hermitian positive definite, so the pencil is
    congruent to an ordinary Hermitian problem and the eigenvalues are real;
    they are nonnegative exactly when A is positive semidefinite.  The pencil
    is reduced with one batched Cholesky + triangular congruence.  Every B in
    the stack must be positive definite; callers screen indices first.

    Returns a (t, r) float array, each row ascending.
    """
    a_stack = np.asarray(a_stack)
    b_stack = np.asarray(b_stack)
    if a_stack.shape != b_stack.shape:
        raise ValueError(f"shape mismatch: {a_stack.shape} vs {b_stack.shape}")
    try:
        chol = np.linalg.cholesky(b_stack)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("a reference matrix in the stack is not positive definite") from exc
    # C = L^{-1} A L^{-H} shares the pencil's eigenvalues and is Hermitian.
    half = np.linalg.solve(chol, a_stack)
    congruent = np.linalg.solve(chol, half.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)
    congruent = (congruent + congruent.conj().transpose(0, 2, 1)) / 2.0
    return np.linalg.eigvalsh(congruent)

