"""Matrix discrepancy measures of Hermitian positive definite pencils.

Each measure compares M = B^{-1} A against the identity through a sum over
its eigenvalues.  For every family that sum is a trace or a log-det, so it is
evaluated without an eigensolve.  All measures vanish iff every eigenvalue
is 1, are nonnegative, and behave near the identity like

    K(I + E) ~ (c/2) * tr(E^2)

for a measure-specific curvature constant c.  Dividing by c puts every
measure on the same local scale, which is what the standardization of the
test statistics uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveEigenvalue
from .hermitian import _eliminate, _lower, _sweep

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

    eigs must be strictly positive; NonPositiveEigenvalue is raised otherwise,
    since log and reciprocal terms are undefined at zero.  Evaluates the pencil (diag(eigs), I).
    """
    lam = np.asarray(eigs, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigs must be a nonempty 1-d array")
    if np.any(lam <= 0.0):
        raise NonPositiveEigenvalue(f"relative eigenvalues must be positive, got min {lam.min():.3e}")
    return float(_pencil_terms([kind], np.atleast_3d(np.diag(lam)), np.atleast_3d(np.eye(lam.size)))[kind][0])


def _trace_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re tr(X Y) over the leading (r, r) axes, summed in i, j order through one product buffer."""
    total, product = 0, np.empty(x.shape[2:], np.result_type(x, y))
    for i, j in np.ndindex(len(x), len(x)):
        total += np.multiply(x[i, j], y[j, i], out=product).real
    return total


def _pencil_terms(kinds, a: np.ndarray, b: np.ndarray) -> dict[Discrepancy, np.ndarray]:
    """Each kind's discrepancy of the pencils (A, B) of frequency-last (r, r, ...) stacks.

    Every family's eigenvalue sum is a trace or log-det in M = B^{-1} A; with D = A - B, E = B^{-1} D:

        kl         tr E - log det M
        j          tr M + tr M^{-1} - 2r = tr((B^{-1} - A^{-1}) D)
        quadratic  tr(E^2) / 2
        chernoff   log det(aM + (1 - a)I) - a log det M = log det(B + aD) - log det B - a log det M

    Scaling both by diag(B)^{-1/2} on each side first keeps M's eigenvalues and makes every
    log-det O(1).  Inverses come from sweeps and log-dets from LDL^H pivots, all elementwise in a
    fixed order, so a pencil's terms have the same bits whatever else the stack holds.  Maps each
    kind to an array over the trailing axes, meaningless where A or B is not positive definite.
    The scaled A, B and D are the only full temporaries: E is formed, a row at a time, for a quadratic
    kind alone, kl sums tr E from its diagonal, and the rest are rows, entries or packed triangles.
    """
    r, families = len(a), {kind.family for kind in kinds}
    with np.errstate(all="ignore"):
        s = 1.0 / np.sqrt(np.moveaxis(np.diagonal(b).real, -1, 0))
        x, y, d = (np.empty(a.shape, np.result_type(*z, float)) for z in ((a,), (b,), (a, b)))
        for i, scale in enumerate(row * s for row in s):  # row i of the (r, r, ...) scale
            np.subtract(a[i], b[i], out=d[i])
            for z, out in ((a, x), (b, y), (d, d)):
                np.multiply(z[i], scale, out=out[i])
        a, b = x, y
        mixed = {k.alpha: _eliminate(_lower(b) + k.alpha * _lower(d), r)[1] for k in kinds if k.family == "chernoff"}
        # the sweep leaves -B^{-1} in b; only j needs -A^{-1}, and elimination has the sweep's pivots
        logdet_b = _sweep(b)
        logdet_a = _sweep(a) if "j" in families else _eliminate(_lower(a), r)[1]
        if "kl" in families:
            trace_e = sum((-sum(b[i, k] * d[k, i] for k in range(r))).real for i in range(r))
        if "j" in families:
            j_term = _trace_product(np.subtract(a, b, out=a), d)
        if "quadratic" in families:  # E = -sum_k b[:, k] D[k], a row at a time
            e, product = np.zeros_like(d), np.empty_like(d[0])
            for i, k in np.ndindex(r, r):
                e[i] += np.multiply(b[i, k], d[k], out=product)
            np.negative(e, out=e)
        return {kind: trace_e - (logdet_a - logdet_b) if kind.family == "kl"
                else j_term if kind.family == "j"
                else 0.5 * _trace_product(e, e) if kind.family == "quadratic"
                else (mixed[kind.alpha] - logdet_b) - kind.alpha * (logdet_a - logdet_b)
                for kind in kinds}
