"""Null-hypothesis models for the spectral density matrix.

A hypothesis is a constraint map y -> g(theta, y) acting on Hermitian PD
matrices, applied frequency by frequency to the unrestricted spectral
estimate.  Three hypotheses are built in:

* independence     g(y) = diag(y_11, ..., y_rr); the series are mutually
                   independent iff the spectral matrix is diagonal at every
                   frequency.
* separable        g(theta, y) = (1/r) (sum_a y_aa / sigma_aa) * Sigma with
                   theta = Sigma, a constant cross-sectional covariance
                   times one common spectral shape.
* graphical        entries on an edge set are kept, inverse entries off it
                   are forced to zero (conditional independence given the
                   remaining series) by covariance selection: exact in one
                   pass for a chordal edge set, cyclic sweeps otherwise.
                   Selection runs elementwise on frequency-last (r, r, ...)
                   stacks: each inverse it needs comes from the sweep kernel
                   of `hermitian`, so no LAPACK call is made per frequency,
                   and one sweep of the completion screens it and gives the
                   inverse the pencil is handed.

Each model also knows the centering and scaling constants (eta, sigma^2)
that standardize the test statistics, either in closed form or through the
generic contraction engine `eta_sigma_generic`, which integrates the
second-derivative tensor of the discrepancy against the null spectrum over
the frequency grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, NoConvergence, NotPositiveDefinite, SingularCovariance
from .hermitian import (DEFAULT_PD_TOL, _eliminate, _lower, _sweep, _unit_scale, as_hermitian, inverse_pd,
                        is_positive_definite)
from .spectral import SpectralSequence, WeightKernel

# Sweeps covariance selection runs before it gives up on a matrix, and its default tolerance.
SELECTION_MAX_SWEEPS = 1000
SELECTION_TOL = 1e-10


@dataclass(frozen=True)
class EtaSigma:
    """Centering constant eta and variance constant sigma^2 (both per frequency).

    Floats, or arrays over a stack of samples, each checked alike.
    """

    eta: float
    sigma2: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.eta)):
            raise ValueError(f"eta must be finite, got {self.eta}")
        if not np.all(np.isfinite(self.sigma2) & (np.asarray(self.sigma2) > 0.0)):
            raise DegenerateVariance(f"sigma2 must be positive, got {self.sigma2}")


@dataclass(frozen=True)
class EdgeSet:
    """Undirected edge set on r series; absent pairs are the constraints.

    Pairs are 0-based and stored with a < b.  Diagonal pairs are implicit.
    missing_count is the number of absent off-diagonal pairs.
    """

    r: int
    edges: frozenset

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"edge set needs r >= 2, got r = {self.r}")
        object.__setattr__(self, "edges", frozenset((a, b) for a, b in self.edges))  # hashable, for the order cache
        for a, b in self.edges:
            if not (0 <= a < b < self.r):
                raise ValueError(f"invalid edge {(a, b)} for r = {self.r}")

    @classmethod
    def from_pairs(cls, r: int, pairs) -> "EdgeSet":
        return cls(r=r, edges=frozenset((min(a, b), max(a, b)) for a, b in pairs))

    @property
    def missing_count(self) -> int:
        return self.r * (self.r - 1) // 2 - len(self.edges)

    @property
    def absent_pairs(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.r) for b in range(a + 1, self.r) if (a, b) not in self.edges]


def _edge_tokens(text: str) -> list[tuple[str, int, int]]:
    """(token, a, b) per token of the CLI edge syntax "1-2,2-3"; a and b are 1-based, not range checked."""
    tokens = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split("-")
        if len(parts) != 2:
            raise ValueError(f"bad edge token {token!r}, expected like '1-2'")
        try:
            tokens.append((token, int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"bad edge token {token!r}: indices must be integers") from exc
    return tokens


def parse_edge_list(text: str, r: int) -> EdgeSet:
    """Parse the CLI edge syntax "1-2,2-3" (1-based indices) into an EdgeSet."""
    pairs = []
    for token, a, b in _edge_tokens(text):
        if not (1 <= a <= r and 1 <= b <= r) or a == b:
            raise ValueError(f"edge {token!r} out of range for r = {r}")
        pairs.append((a - 1, b - 1))
    return EdgeSet.from_pairs(r, pairs)


@functools.lru_cache
def _elimination_order(edges: EdgeSet):
    """(v, earlier neighbours S_v, earlier non-neighbours, _fill's plan) in maximum cardinality search order.

    None unless every S_v is a clique: the edge set is chordal (Tarjan & Yannakakis, 1984).
    Computed once per edge set; the index arrays are shared, so they are never written.
    """
    near = [{b for pair in edges.edges if a in pair for b in pair if b != a} for a in range(edges.r)]
    order, seen = [], []
    for _ in range(edges.r):
        v = max((u for u in range(edges.r) if u not in seen), key=lambda u: len(near[u] & set(seen)))
        clique = [s for s in seen if s in near[v]]
        if any(b not in near[a] for a in clique for b in clique if a != b):
            return None
        clique, others = np.array(clique, dtype=int), np.array([s for s in seen if s not in near[v]], dtype=int)
        order.append((v, clique, others, _fill_plan(v, others, clique)))
        seen.append(v)
    return order


def _fill_plan(a: int, others: np.ndarray, rest: np.ndarray) -> tuple:
    """The index tuples _fill reads and writes for G[a, others] given G[rest, rest]."""
    return np.ix_(rest, rest), (a, rest[:, np.newaxis]), np.ix_(rest, others), (a, others), (others, a)


def _fill(g: np.ndarray, plan: tuple) -> None:
    """Set G[a, others] = G[a, rest] G[rest, rest]^{-1} G[rest, others] and its mirror, in place.

    g is a frequency-last (r, r, K) stack and plan is _fill_plan(a, others, rest).  A copy of
    G[rest, rest] is swept to minus its inverse, and the products run elementwise over K; an empty
    rest gives 0.
    """
    square, row, cross, upper, lower = plan
    block = g[square]
    if len(block):  # an empty rest has nothing to sweep
        _sweep(block)
    coef = np.add.reduce(g[row] * block, axis=0)  # -G[a, rest] G[rest, rest]^{-1}
    value = np.add.reduce(coef[:, np.newaxis] * g[cross], axis=0)
    g[upper], g[lower] = -value, -np.conj(value)


def _selection_sweeps(stack: np.ndarray, active: np.ndarray, absent, tol: float) -> np.ndarray:
    """Cyclic sweeps over the absent pairs of stack[:, :, active], in place; returns the indices left above tol."""
    plans = [_fill_plan(a, np.array([b]), np.delete(np.arange(len(stack)), [a, b])) for a, b in absent]
    rows, cols = np.array(absent).T
    work = stack[:, :, active]
    for _ in range(SELECTION_MAX_SWEEPS):
        if not active.size:
            break
        for plan in plans:
            _fill(work, plan)
        inv = work.copy()
        _sweep(inv)  # -G^{-1}
        scale = np.sqrt(np.abs(inv[range(len(inv)), range(len(inv))]))  # sqrt((G^-1)_aa)
        done = np.max(np.abs(inv[rows, cols]) / (scale[rows] * scale[cols]), axis=0) <= tol
        stack[:, :, active[done]] = work[:, :, done]
        active, work = active[~done], work[:, :, ~done]
    return active


def covariance_selection(h, edges: EdgeSet, tol: float = SELECTION_TOL) -> np.ndarray:
    """Complete a Hermitian PD matrix so its inverse vanishes off the edge set.

    Keeps the diagonal and edge entries of the Hermitian part of h bit for
    bit and sets each absent entry to G_ab = G_{a,R} G_{R,R}^{-1} G_{R,b},
    which makes a and b independent given R and keeps G PD.  A chordal edge
    set takes one exact pass (Dempster's closed form; Lauritzen 1996, 5.3):
    in maximum cardinality search order, R holds a's earlier neighbours, a
    clique, and b runs over its earlier non-neighbours.  Other edge sets run
    cyclic sweeps with R = all other indices until |(G^-1)_ab| <= tol *
    sqrt((G^-1)_aa (G^-1)_bb) on every absent pair, a test that a rescaling of
    the series leaves alone; tol and SELECTION_MAX_SWEEPS apply only there.

    h may be one (r, r) matrix or an (..., r, r) stack.  A single matrix
    raises NotPositiveDefinite on invalid input and NoConvergence if the
    sweeps do not reach tol; in a stack, such a matrix comes back as NaN.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    g = np.moveaxis(as_hermitian(np.asarray(h, dtype=complex)), (-2, -1), (0, 1)).copy()
    pd = _eliminate(_lower(g), len(g))[0]
    if g.ndim == 2 and not pd:
        raise NotPositiveDefinite("covariance selection needs a positive definite input")
    if _complete(g, pd, edges, tol) and g.ndim == 2:
        raise NoConvergence(f"covariance selection did not reach tol {tol:g} in {SELECTION_MAX_SWEEPS} sweeps")
    return np.moveaxis(g, (0, 1), (-2, -1))


def _complete(g: np.ndarray, pd, edges: EdgeSet, tol: float = SELECTION_TOL) -> int:
    """covariance_selection on a C-contiguous frequency-last (r, r, ...) Hermitian stack g with its PD flags
    pd, in place; returns how many PD matrices the sweeps left unconverged (NaN, as is every non-PD one)."""
    stack = g.reshape(g.shape[:2] + (-1,))
    pd = np.reshape(pd, -1)
    stack[:, :, ~pd] = np.nan
    order = _elimination_order(edges)
    if order is None:
        left = _selection_sweeps(stack, np.flatnonzero(pd), edges.absent_pairs, tol)
        stack[:, :, left] = np.nan
        return left.size
    for _, _, others, plan in order:
        if others.size:
            _fill(stack, plan)
    stack[:, :, ~pd] = np.nan  # again, as an empty clique fills in zeros
    return 0


def mu_tensor(g_val, g_inv, dg) -> np.ndarray:
    """Second-derivative tensor of the discrepancy through the constraint map.

    Parameters
    ----------
    g_val : (..., r, r) Hermitian PD value of the null spectral matrix.
    g_inv : (..., r, r) its inverse.
    dg : (..., r, r, r, r) array, dg[..., a, b] = derivative of the constraint
        map with respect to entry (a, b) of its matrix argument.

    Returns the (..., r, r, r, r) complex array, one tensor per matrix of the stack,

        mu[a,b,c,d] = 1/2 tr[D_ab G D_cd G] - 1/2 [G D_ab G]_{dc}
                      - 1/2 [G D_cd G]_{ba} + 1/2 G_{bc} G_{da}

    with G = g_inv and D = dg.
    """
    g_inv = np.asarray(g_inv, dtype=complex)
    dg = np.asarray(dg, dtype=complex)
    r = g_inv.shape[-1]
    if dg.shape[-4:] != (r, r, r, r):
        raise ValueError(f"dg must have shape (..., {r}, {r}, {r}, {r}), got {dg.shape}")
    term1 = 0.5 * np.einsum("...abij,...jk,...cdkl,...li->...abcd", dg, g_inv, dg, g_inv, optimize=True)
    term2 = -0.5 * np.einsum("...di,...abij,...jc->...abcd", g_inv, dg, g_inv, optimize=True)
    term3 = -0.5 * np.einsum("...bi,...cdij,...ja->...abcd", g_inv, dg, g_inv, optimize=True)
    term4 = 0.5 * np.einsum("...bc,...da->...abcd", g_inv, g_inv)
    return term1 + term2 + term3 + term4


def eta_sigma_generic(g_grid: SpectralSequence, dg_provider, kernel: WeightKernel | None = None, phi=None) -> EtaSigma:
    """eta and sigma^2 by direct contraction over a frequency grid.

    dg_provider(lambda, g_matrix) must return the (r, r, r, r) derivative
    array of the constraint map at that frequency.  The frequency integrals
    are Riemann sums over the grid; with a weight function phi the eta
    integrand picks up phi(lambda) and the sigma^2 integrand phi(lambda)^2.
    kernel supplies the weight-function constants; None means the flat
    kernel's exact values, which do not depend on m.
    """
    if not np.all(g_grid.pd):
        raise NotPositiveDefinite("eta_sigma_generic needs a PD matrix at every grid point")
    kernel = WeightKernel.flat(2) if kernel is None else kernel
    freqs, mats = g_grid.frequencies, g_grid.matrices
    mu_all = mu_tensor(mats, inverse_pd(mats), np.stack([dg_provider(lam, g) for lam, g in zip(freqs, mats)]))
    eta_terms = np.einsum("tabcd,tad,tcb->t", mu_all, mats, mats, optimize=True)
    mu_conj = np.conj(mu_all)
    sigma_terms = np.einsum("tabcd,tABCD,taA,tBb,tcC,tDd->t", mu_all, mu_conj, mats, mats, mats, mats, optimize=True)
    sigma_terms += np.einsum("tabcd,tABCD,taC,tDb,tcA,tBd->t", mu_all, mu_conj, mats, mats, mats, mats, optimize=True)
    if phi is not None:
        phi_vals = np.array([float(phi(lam)) for lam in freqs])
        eta_terms = eta_terms * phi_vals
        sigma_terms = sigma_terms * phi_vals**2
    eta_c = kernel.cu * np.mean(eta_terms)
    sigma_c = kernel.du * np.mean(sigma_terms)
    for name, value in (("eta", eta_c), ("sigma2", sigma_c)):
        if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
            raise ValueError(f"{name} has a non-negligible imaginary part {value.imag:.3e}")
    return EtaSigma(eta=float(eta_c.real), sigma2=float(sigma_c.real))


class IndependenceModel:
    """Mutual independence: the spectral matrix is diagonal at every frequency.

    The restriction is built frequency last.  Its screen reads the diagonal, which holds the LDL^H pivots,
    and gives the elimination's verdict bit for bit: that also fails where a pivot before the last has a
    reciprocal that overflows, as the elimination's 0 * (1/p) is NaN there.  It hands the pencil the
    inverse and log det of the diagonal scaled to 1 from the pivots a sweep of it finds, so the pencil's
    terms keep the bits of that sweep.
    """

    name = "independence"

    def estimate_theta(self, values) -> np.ndarray:
        return np.empty(np.shape(values)[:-2] + (0,))

    def restricted_estimate(self, f_unrestricted: SpectralSequence, theta=None) -> SpectralSequence:
        r, idx = f_unrestricted.r, np.arange(f_unrestricted.r)
        diag = np.real(np.moveaxis(f_unrestricted.matrices, (-2, -1), (0, 1))[idx, idx])
        mats, minus_inverse = np.zeros((r,) + diag.shape, dtype=complex), np.zeros((r,) + diag.shape)
        mats[idx, idx] = diag
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            trace = functools.reduce(np.add, diag)  # in column order, as _eliminate adds it
            pivots_clear = np.all(diag > DEFAULT_PD_TOL * trace / r, axis=0) & np.all(1.0 / diag[:-1] < np.inf, axis=0)
            pivots = diag * np.square(_unit_scale(diag))  # the scaled diagonal, as the pencil's sweep sees it
            minus_inverse[idx, idx] = -1.0 / pivots
            logdet = functools.reduce(np.add, np.log(pivots))
        pd = (trace > 0.0) & pivots_clear
        return SpectralSequence._trusted("restricted", f_unrestricted.n, np.moveaxis(mats, (0, 1), (-2, -1)), pd,
                                         (minus_inverse, logdet, True))

    def eta_sigma_closed(self, r: int, theta=None) -> EtaSigma:
        return EtaSigma(eta=(r * r - r) / 4.0, sigma2=(r * r - r) / 6.0)

    def derivative_provider(self, r: int, theta=None):
        dg = np.zeros((r, r, r, r), dtype=complex)
        dg[(np.arange(r),) * 4] = 1.0
        return lambda lam, g: dg


class SeparableModel:
    """Constant covariance times a common scalar spectral shape.

    Scaled to a unit diagonal, the restriction is Sigma's correlation matrix at every frequency, so it
    hands the pencil that matrix's inverse and log det from one sweep per sample.
    """

    name = "separable"

    def estimate_theta(self, values) -> np.ndarray:
        """Sample second-moment matrix (1/n) sum Z_t Z_t', one per sample of a stack."""
        arr = np.asarray(values, dtype=float)
        sigma = np.swapaxes(arr, -1, -2) @ arr / arr.shape[-2]
        sigma = (sigma + np.swapaxes(sigma, -1, -2)) / 2.0
        if not np.all(is_positive_definite(sigma)):
            raise SingularCovariance("sample second-moment matrix is not positive definite")
        return sigma

    def restricted_estimate(self, f_unrestricted: SpectralSequence, theta) -> SpectralSequence:
        sigma = as_hermitian(np.asarray(theta, dtype=float))
        diag = np.real(np.diagonal(f_unrestricted.matrices, axis1=-2, axis2=-1))
        scale = np.diagonal(sigma, axis1=-2, axis2=-1)[..., np.newaxis, :]
        shape = np.mean(np.divide(diag, scale, order="C"), axis=-1)  # adds each row as a frequency-first copy does
        mats = shape * np.ascontiguousarray(np.moveaxis(sigma, (-2, -1), (0, 1)), complex)[..., np.newaxis]
        s = _unit_scale(np.moveaxis(np.diagonal(sigma, axis1=-2, axis2=-1), -1, 0))
        corr = np.ascontiguousarray(np.moveaxis(sigma, (-2, -1), (0, 1)) * (s * s[:, np.newaxis]))[..., np.newaxis]
        with np.errstate(all="ignore"):
            logdet = _sweep(corr)[1]  # leaves -corr^{-1} in corr
        return SpectralSequence._trusted("restricted", f_unrestricted.n, np.moveaxis(mats, (0, 1), (-2, -1)),
                                         _eliminate(_lower(mats), f_unrestricted.r)[0], (corr, logdet, False))

    def eta_sigma_closed(self, r: int, theta) -> EtaSigma:
        """The constants for one theta, or arrays of them over a stack of theta."""
        sigma = np.asarray(theta, dtype=float)
        d = np.diagonal(sigma, axis1=-2, axis2=-1)
        tau = np.sum(sigma**2 / (d[..., :, np.newaxis] * d[..., np.newaxis, :]), axis=(-2, -1))
        return EtaSigma(eta=(tau / r - 2.0 + r * r) / 4.0, sigma2=(tau**2 / r**2 - 2.0 + r * r) / 6.0)

    def derivative_provider(self, r: int, theta):
        sigma = np.asarray(theta, dtype=complex)
        d = np.real(np.diag(sigma))
        dg = np.zeros((r, r, r, r), dtype=complex)
        dg[np.arange(r), np.arange(r)] = sigma / (r * d[:, np.newaxis, np.newaxis])
        return lambda lam, g: dg


class GraphicalModel:
    """Conditional independence off a fixed edge set (covariance selection).

    The restriction sweeps one copy of its completion B: the sweep's screen is the elimination's
    verdict bit for bit, and it hands the pencil -B^{-1} and log det B scaled to B's unit diagonal.
    Frequencies that are not completed are NaN, so they fail the screen.
    """

    name = "graphical"

    def __init__(self, edges: EdgeSet):
        if edges.missing_count < 1:
            raise ValueError("complete edge set leaves nothing to test; at least one pair must be absent")
        self.edges = edges

    def estimate_theta(self, values) -> np.ndarray:
        return np.empty(np.shape(values)[:-2] + (0,))

    def restricted_estimate(self, f_unrestricted: SpectralSequence, theta=None) -> SpectralSequence:
        # Already Hermitian and screened; frequencies it cannot complete come back NaN.
        r = f_unrestricted.r
        g = np.moveaxis(f_unrestricted.matrices, (-2, -1), (0, 1)).copy()
        _complete(g, f_unrestricted.pd, self.edges)
        with np.errstate(all="ignore"):
            minus_inverse = g.copy()
            pd, logdet = _sweep(minus_inverse)
            diagonal = g[range(r), range(r)].real
            root = np.sqrt(diagonal)
            minus_inverse *= root[:, np.newaxis] * root  # -B^{-1}_ik sqrt(b_ii b_kk), the scaled B's
            logdet = logdet - functools.reduce(np.add, np.log(diagonal))
        return SpectralSequence._trusted("restricted", f_unrestricted.n, np.moveaxis(g, (0, 1), (-2, -1)), pd,
                                         (minus_inverse, logdet, False))

    def eta_sigma_closed(self, r: int, theta=None) -> EtaSigma:
        m_absent = self.edges.missing_count
        return EtaSigma(eta=m_absent / 2.0, sigma2=m_absent / 3.0)

    def derivative_provider(self, r: int, theta=None):
        raise ValueError("the graphical constraint map is implicit; closed-form eta/sigma only")


def model_from_name(name: str, r: int | None = None, edges: str | None = None):
    """Build a hypothesis model from its CLI name; a graphical one from edge text like "1-2,2-3" on r series."""
    key = name.strip().lower()
    if key == "independence":
        return IndependenceModel()
    if key == "separable":
        return SeparableModel()
    if key == "graphical":
        if edges is None:
            raise ValueError("graphical hypothesis needs an edge list")
        if r is None:
            raise ValueError("graphical hypothesis needs the series count to parse edges")
        return GraphicalModel(parse_edge_list(edges, r))
    raise ValueError(f"unknown hypothesis {name!r}")
