"""Matrix discrepancy measures of Hermitian positive definite pencils.

Each measure compares M = B^{-1} A against the identity through a sum over
its eigenvalues.  For every family that sum is a trace or a log-det, so it is
evaluated without an eigensolve.  All measures vanish iff every eigenvalue
is 1, are nonnegative, and behave near the identity like

    K(I + E) ~ (c/2) * tr(E^2)

for a measure-specific curvature constant c.  Dividing by c puts every
measure on the same local scale, which is what the standardization of the
test statistics uses.

On the pipeline's pencils (A, B), every restriction hands over the inverse and log-det of B
scaled to a unit diagonal, and whether B is diagonal, as does `discrepancy` for its B = I, and the
smoothing screen hands over A's log-det and, for j, its inverse, rescaled into the pencil's own
buffer: no array handed over is written.  So B and A are swept here only for sequences built by
SpectralSequence.from_matrices, and A for `discrepancy`; an elimination runs only for chernoff's
mixed matrix.  A trace of a product is formed a row at a time and summed in one pass over its r^2 rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveEigenvalue
from .hermitian import _eliminate, _lower, _sweep, _unit_scale

VALID_FAMILIES = ("kl", "j", "chernoff", "quadratic")


@dataclass(frozen=True)
class Discrepancy:
    """A discrepancy family plus its parameter.

    family : one of "kl", "j", "chernoff", "quadratic"
    alpha  : mixing weight in (0, 1), used by "chernoff" only
    """

    family: str
    alpha: float = 0.5

    def __post_init__(self):
        if self.family not in VALID_FAMILIES:
            raise ValueError(f"unknown discrepancy family {self.family!r}")
        if self.family == "chernoff" and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"chernoff weight must lie in (0, 1), got {self.alpha}")

    @property
    def curvature(self) -> float:
        """Quadratic coefficient c in K(I + E) ~ (c/2) tr(E^2)."""
        if self.family == "j":
            return 2.0
        if self.family == "chernoff":
            return self.alpha * (1.0 - self.alpha)
        return 1.0

    @property
    def label(self) -> str:
        if self.family == "chernoff":
            return f"chernoff({self.alpha:g})"
        return self.family


KL = Discrepancy("kl")
J = Discrepancy("j")
QUADRATIC = Discrepancy("quadratic")


def chernoff(alpha: float) -> Discrepancy:
    return Discrepancy("chernoff", alpha)


def discrepancy(kind: Discrepancy, eigs) -> float:
    """Evaluate one discrepancy on a vector of relative eigenvalues.

    eigs must be finite, or ValueError is raised, and strictly positive; NonPositiveEigenvalue is raised
    otherwise, since log and reciprocal terms are undefined at zero.  Evaluates the pencil (diag(eigs), I),
    handing over I's inverse and log-det, and that it is diagonal.
    """
    lam = np.asarray(eigs, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigs must be a nonempty 1-d array")
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"relative eigenvalues must be finite, got {lam[~np.isfinite(lam)][0]}")
    if np.any(lam <= 0.0):
        raise NonPositiveEigenvalue(f"relative eigenvalues must be positive, got min {lam.min():.3e}")
    identity = np.atleast_3d(np.eye(lam.size))
    return float(_pencil_terms([kind], np.atleast_3d(np.diag(lam)), identity, (-identity, np.zeros(1), True))[kind][0])


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """The sum over axis 0, adding the rows in turn from 0.  numpy's reduction does so along an outer
    axis, but with one element per row it reduces the inner axis, and adds pairwise from 8 rows on."""
    if x[0].size > 1:
        return np.add.reduce(x, axis=0, initial=0.0)
    return functools.reduce(np.add, x, 0.0)


def _trace_product(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Re tr(X Y) over the leading (r, r) axes: products into out, which may be x, added in i, j order.

    Row i of out takes X[i] Y[:, i]: a whole-stack product against Y's transpose would buffer a stack.
    """
    for i, row in enumerate(x):
        np.multiply(row, y[:, i], out=out[i])
    return _sum_rows(out.real.reshape((-1,) + out.shape[2:]))


def _pencil_terms(kinds, a: np.ndarray, b: np.ndarray, inverse=None, factor=None) -> dict[Discrepancy, np.ndarray]:
    """Each kind's discrepancy of the pencils (A, B) of frequency-last (r, r, ...) stacks.

    Every family's eigenvalue sum is a trace or log-det in M = B^{-1} A; with D = A - B, E = B^{-1} D:

        kl         tr E - log det M
        j          tr M + tr M^{-1} - 2r = tr((B^{-1} - A^{-1}) D)
        quadratic  tr(E^2) / 2
        chernoff   log det(aM + (1 - a)I) - a log det M = log det(B + aD) - log det B - a log det M

    Scaling both by s = diag(B)^{-1/2} on each side first keeps M's eigenvalues and makes every
    log-det O(1).  A restriction that knows B's structure passes inverse = (-B^{-1}, log det B,
    diagonal) of the scaled B, frequency last and broadcastable against a, with diagonal True where B
    and B^{-1} vanish off the diagonal; without it the scaled B is swept and taken as full.  The
    smoothing screen passes factor = (-A^{-1} or None, log det A) of the unscaled A, rescaled here into
    a buffer of the pencil's own; without them the scaled A is swept, for j's inverse and the log det.
    No array handed in is written.  With a diagonal B every loop over (i, k) visits the diagonal only:
    off it D is A and B^{-1} adds nothing; with a full B, tr E takes one product a row at a time and
    two sums.  Inverses come from sweeps and log-dets from LDL^H pivots, all elementwise in a fixed
    order, and every trace adds its terms in the loops' order, so a pencil's terms have the same bits
    whatever else the stack holds.  Maps each kind to an array over the trailing axes, meaningless
    where A or B is not positive definite.  D is the one full temporary that every call makes, over
    the scaled A where that is swept; the scaled B is another when it is swept or a chernoff kind
    needs it, -A^{-1} one for j, and E one for a quadratic kind, formed a row at a time.  Each trace
    of a product overwrites a stack that is not needed again: j's -A^{-1}, tr E's and then tr(E^2)'s D.
    """
    r, families = len(a), {kind.family for kind in kinds}
    minus_inverse, logdet_b, diagonal = (None, None, False) if inverse is None else inverse
    support = [slice(i, i + 1) if diagonal else slice(None) for i in range(r)]  # the columns of row i
    with np.errstate(all="ignore"):
        s = _unit_scale(np.moveaxis(np.diagonal(b).real, -1, 0))
        handed, logdet_a = (None, None) if factor is None else factor
        swept = handed is None and ("j" in families or factor is None)
        x = np.empty(a.shape, np.result_type(a, float if minus_inverse is None else minus_inverse))
        if swept or diagonal:  # off the diagonal D is A
            for i, row in enumerate(s):
                np.multiply(a[i], row * s, out=x[i])  # row i of the (r, r, ...) scale
        d = x.astype(np.result_type(x, b), copy=swept)
        if swept:  # the sweep leaves -A^{-1} in x
            logdet_a, inverse_a = _sweep(x)[1], x
        else:  # -A^{-1}_ik / (s_i s_k) and log det A + 2 sum_i log s_i, the scaled A's
            inverse_a = None if handed is None else np.empty_like(handed)
            for i, row in enumerate(() if handed is None else s):
                np.multiply(handed[i], 1.0 / (row * s), out=inverse_a[i])
            logdet_a = logdet_a + 2.0 * functools.reduce(np.add, np.log(s))
        y = np.zeros(b.shape, np.result_type(b, float)) if inverse is None or "chernoff" in families else None
        for i, cols in enumerate(support):
            scale = s[i] * s[cols]
            np.multiply(np.subtract(a[i, cols], b[i, cols], out=d[i, cols]), scale, out=d[i, cols])
            if y is not None:
                np.multiply(b[i, cols], scale, out=y[i, cols])
        mixed = {k.alpha: _eliminate(_lower(y) + k.alpha * _lower(d), r)[1] for k in kinds if k.family == "chernoff"}
        if inverse is None:  # the sweep leaves -B^{-1} in y
            logdet_b, minus_inverse = _sweep(y)[1], y
        if "j" in families:
            for i, cols in enumerate(support):
                np.subtract(inverse_a[i, cols], minus_inverse[i, cols], out=inverse_a[i, cols])
            j_term = _trace_product(inverse_a, d, out=inverse_a)
        if "quadratic" in families:  # E = -sum_k B^{-1}[:, k] D[k], a row at a time
            e, product = np.empty_like(d), np.empty_like(d[0])
            for i, (k, *others) in enumerate(range(r)[cols] for cols in support):
                np.multiply(minus_inverse[i, k], d[k], out=e[i])
                for k in others:
                    e[i] += np.multiply(minus_inverse[i, k], d[k], out=product)
            np.negative(e, out=e)
        if "kl" in families and not diagonal:  # d[k, i] = -B^{-1}_ik D_ki
            for k, row in enumerate(d):
                np.multiply(minus_inverse[:, k], row, out=row)
            trace_e = _sum_rows((-_sum_rows(d)).real)
        elif "kl" in families:
            trace_e = sum(-(minus_inverse[i, i] * d[i, i]).real for i in range(r))
        return {kind: trace_e - (logdet_a - logdet_b) if kind.family == "kl"
                else j_term if kind.family == "j"
                else 0.5 * _trace_product(e, e, out=d) if kind.family == "quadratic"
                else (mixed[kind.alpha] - logdet_b) - kind.alpha * (logdet_a - logdet_b)
                for kind in kinds}
