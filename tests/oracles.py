"""Direct per-matrix reference computations the tests compare the batched paths to."""

import csv
import math
from itertools import combinations

import numpy as np
import scipy.linalg

from spectest.errors import NonNumeric, ParseError, RaggedRows, TooShort
from spectest.hermitian import _eliminate, _lower, as_hermitian, inverse_pd, is_positive_definite
from spectest.hypotheses import SELECTION_MAX_SWEEPS, SELECTION_TOL, _elimination_order
from spectest.spectral import _pair_sums, _periodogram_planes


def periodogram(frame, j):
    """I[j] = w[j] w[j]^H at frequency index j (mod n), as an explicit outer product."""
    wj = frame.w[j % frame.n]
    return np.outer(wj, np.conj(wj))


def leave_out(frame, j, m):
    """Mean of the m periodogram ordinates at offsets -m/2 .. m/2 around j, without j."""
    offsets = [k for k in range(-(m // 2), m // 2 + 1) if k != 0]
    return sum(periodogram(frame, j + k) for k in offsets) / m


def logdet(a):
    """log det A from the Cholesky diagonal."""
    return float(2.0 * np.sum(np.log(np.real(np.diagonal(np.linalg.cholesky(a))))))


def relative_eigenvalues(a, b):
    """Ascending eigenvalues of B^{-1} A from the generalized Hermitian solver."""
    return scipy.linalg.eigh(a, b, eigvals_only=True)


def eigenvalue_terms(kind, lam):
    """Row-wise discrepancy values for a (t, r) array of relative eigenvalues.

    Zero or negative eigenvalues give +inf, the limiting value.
    """
    r = lam.shape[1]
    if kind.family == "quadratic":
        return 0.5 * np.sum((lam - 1.0) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lam = np.log(lam)
        if kind.family == "kl":
            vals = np.sum(lam - log_lam, axis=1) - r
        elif kind.family == "j":
            vals = np.sum(lam + 1.0 / lam, axis=1) - 2.0 * r
        else:
            a = kind.alpha
            # a*(lam-1)+1 rather than a*lam+1-a: exact zero at lam = 1
            vals = np.sum(np.log(a * (lam - 1.0) + 1.0) - a * log_lam, axis=1)
    return np.where(np.any(lam <= 0.0, axis=1), np.inf, vals)


def column_screen(a, tol=1e-12):
    """PD verdicts from a column-by-column Cholesky over an (..., r, r) stack.

    Every pivot must clear tol * trace / r and the trace must be positive;
    a single (r, r) matrix gives a bool.
    """
    a = np.asarray(a)
    r = a.shape[-1]
    trace = np.trace(a, axis1=-2, axis2=-1).real
    ok = trace > 0.0
    floor = tol * trace / r
    work = np.array(a, dtype=np.result_type(a.dtype, float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(r):
            pivot = work[..., k, k].real
            ok &= pivot > floor
            col = work[..., k + 1 :, k]
            scaled = np.conj(col / pivot[..., np.newaxis])
            work[..., k + 1 :, k + 1 :] -= col[..., :, np.newaxis] * scaled[..., np.newaxis, :]
    return ok if a.ndim > 2 else bool(ok)


def block_eliminate(a, r, tol=1e-12):
    """(ok, logdet, rest) of an LDL^H elimination of the first r columns of a frequency-last stack.

    Each step subtracts the full outer product from the trailing block, upper
    triangle included, in the arithmetic of the lower-triangle kernel: a complex
    column is scaled by the reciprocal of its pivot, a real one divided by it.
    """
    work = np.array(a, dtype=np.result_type(a.dtype, float), order="C")
    trace = np.trace(work[:r, :r]).real
    ok = trace > 0.0
    floor = tol * trace / r
    logdet = np.zeros_like(trace)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(r):
            pivot = work[k, k].real
            ok &= pivot > floor
            logdet += np.log(pivot)
            col = work[k + 1 :, k]
            scaled = np.conj(col * (1.0 / pivot)) if np.iscomplexobj(col) else col / pivot
            work[k + 1 :, k + 1 :] -= col[:, np.newaxis] * scaled[np.newaxis, :]
    return ok, logdet, work[r:, r:]


def eliminate_by_division(w, r, tol=1e-12):
    """(ok, logdet) of the packed lower-triangle LDL^H kernel, in place, each column divided by its pivot.

    A complex stack divides by the complex pivot (pivot, 0) in numpy's complex division loop, a
    real one by the real pivot; the trace is np.sum over the stacked diagonal.
    """
    s = int((2 * len(w)) ** 0.5)
    columns = [w[j * s - j * (j - 1) // 2 : (j + 1) * (2 * s - j) // 2] for j in range(s)]
    trace = np.sum([column[0].real for column in columns[:r]], axis=0)
    ok = trace > 0.0
    floor = tol * trace / r
    logdet = np.zeros_like(trace)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, column in enumerate(columns[:r]):
            pivot = column[0].real.copy()
            ok &= pivot > floor
            logdet += np.log(pivot)
            scaled = np.conj(column[1:] / pivot.astype(w.dtype))
            for j, later in enumerate(columns[k + 1 :]):
                later -= column[1 + j :] * scaled[j]
    return ok, logdet


def full_sweep(a):
    """Sweep every index of a frequency-last (r, r, ...) stack in place, each step subtracting the
    full r x r outer product; returns log det and leaves -A^{-1} in a."""
    logdet = np.zeros(a.shape[2:])
    for k in range(a.shape[0]):
        pivot = a[k, k].real.copy()
        logdet += np.log(pivot)
        scaled = a[:, k] * (1.0 / pivot) if np.iscomplexobj(a) else a[:, k] / pivot
        a -= a[:, k, np.newaxis] * np.conj(scaled)[np.newaxis, :]
        a[:, k], a[k, :] = scaled, np.conj(scaled)
        a[k, k] = -1.0 / pivot
    return logdet


def pencil_terms_by_full_sweeps(kinds, a, b):
    """divergence._pencil_terms from whole-stack temporaries: the (r, r, ...) scale, scaled copies
    of A, B and D = A - B, full sweeps, the full E = B^{-1} D for every call, and one
    (r, r, ...) product stack per trace."""

    def trace_product(x, y):
        products = (x * np.swapaxes(y, 0, 1)).real
        return sum(products[i, j] for i in range(x.shape[0]) for j in range(x.shape[0]))

    r = a.shape[0]
    with np.errstate(all="ignore"):
        scale = 1.0 / np.sqrt(np.moveaxis(np.diagonal(b).real, -1, 0))
        scale = scale[:, np.newaxis] * scale[np.newaxis, :]
        a, b, d = (np.multiply(x, scale, dtype=np.result_type(x, float), order="C") for x in (a, b, a - b))
        mixed = {k.alpha: _eliminate(_lower(b + k.alpha * d), r)[1] for k in kinds if k.family == "chernoff"}
        logdet_b = full_sweep(b)
        logdet_a = full_sweep(a) if any(k.family == "j" for k in kinds) else _eliminate(_lower(a), r)[1]
        e = -sum(b[:, k, np.newaxis] * d[k] for k in range(r))
        trace_e = sum(e[i, i].real for i in range(r))
        return {kind: trace_e - (logdet_a - logdet_b) if kind.family == "kl"
                else trace_product(a - b, d) if kind.family == "j"
                else 0.5 * trace_product(e, e) if kind.family == "quadratic"
                else (mixed[kind.alpha] - logdet_b) - kind.alpha * (logdet_a - logdet_b)
                for kind in kinds}


def bordered_cvll_curve(frame, grid):
    """CVLL scores for an ascending grid, one full complex (r + 1) x (r + 1) bordered stack per span.

    The same running pair sums as the library give G = S / m, written into both triangles beside
    the border w, w^H and a zero corner, and each span's stack is eliminated by block_eliminate.
    """
    n, r, half = frame.n, frame.r, frame.n // 2
    reach = grid[-1] // 2
    planes = _periodogram_planes(frame, reach)
    pairs = _pair_sums(planes, reach)
    total = np.zeros(planes.shape[:-1] + (half,))
    (a, b), (c, d) = np.tril_indices(r), np.tril_indices(r, -1)
    h, scores = 0, []
    for m in grid:
        for _ in range(h + 1, m // 2 + 1):
            total += next(pairs)
        h = m // 2
        g = total * (1.0 / m)
        bordered = np.zeros((r + 1, r + 1, half), dtype=complex)
        bordered.real[a, b] = bordered.real[b, a] = g[: a.size]
        bordered.imag[c, d], bordered.imag[d, c] = g[a.size :], -g[a.size :]
        bordered[:r, r], bordered[r, :r] = frame.w[1 : half + 1].T, np.conj(frame.w[1 : half + 1]).T
        ok, logdet_, rest = block_eliminate(bordered, r)
        with np.errstate(invalid="ignore"):
            fit = (np.sum(logdet_) - np.sum(rest[0, 0].real)) / n
        scores.append(float(fit) if ok.all() else math.inf)
    return scores


def ingest_by_cell(path, demean=True):
    """A header + numeric rows CSV as an (n, r) array, read by csv.reader with one float() per cell.

    Error messages name the offending 1-based file row (the header is row 1), or the first column
    whose demeaned values overflow the float range.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TooShort(f"{path}: empty file") from None
        r = len(header)
        if r < 1:
            raise ParseError(f"{path}: header row is empty")
        rows = []
        for line_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != r:
                raise RaggedRows(f"{path}: row {line_no}: expected {r} fields, got {len(cells)}")
            parsed = []
            for col, cell in enumerate(cells):
                try:
                    value = float(cell)
                    problem = None if math.isfinite(value) else f"non-finite value {cell!r}"
                except ValueError:
                    problem = f"{cell!r} is not a number"
                if problem:
                    raise NonNumeric(f"{path}: row {line_no}, column {col + 1} ({header[col].strip()}): {problem}")
                parsed.append(value)
            rows.append(parsed)
    if len(rows) < 8:
        raise TooShort(f"{path}: need at least 8 data rows, got {len(rows)}")
    sample = np.array(rows)
    if demean:
        with np.errstate(over="ignore", invalid="ignore"):
            sample = sample - sample.mean(axis=0, keepdims=True)
        for col in range(r):
            if not np.isfinite(sample[:, col]).all():
                raise NonNumeric(f"{path}: column {col + 1} ({header[col].strip()}): demeaning overflows the float range")
    return sample


def is_chordal(edges):
    """True unless some set of four or more vertices induces a cycle, by brute force over subsets.

    A subset induces a cycle exactly when each of its vertices has two
    neighbours inside it and a walk along those neighbours visits all of it.
    """
    joined = set(edges.edges) | {(b, a) for a, b in edges.edges}
    for size in range(4, edges.r + 1):
        for subset in combinations(range(edges.r), size):
            near = {v: [u for u in subset if (v, u) in joined] for v in subset}
            if any(len(near[v]) != 2 for v in subset):
                continue
            reached, stack = {subset[0]}, [subset[0]]
            while stack:
                for u in near[stack.pop()]:
                    if u not in reached:
                        reached.add(u)
                        stack.append(u)
            if len(reached) == size:
                return False
    return True


def fill_by_solve(work, a, others, rest):
    """Set G[a, others] = G[a, rest] G[rest, rest]^{-1} G[rest, others] and its mirror in a frequency-first
    (K, r, r) stack, in place, by one batched LAPACK solve."""
    solved = np.linalg.solve(work[:, rest[:, np.newaxis], rest], work[:, rest[:, np.newaxis], others])
    value = np.einsum("ks,ksu->ku", work[:, a, rest], solved)
    work[:, a, others], work[:, others, a] = value, np.conj(value)


def selection_by_solves(h, edges, tol=SELECTION_TOL):
    """Covariance selection on an (r, r) matrix or (..., r, r) stack, frequency first, by LAPACK solves.

    A chordal edge set takes one pass of fills in maximum cardinality search order; any other runs
    cyclic sweeps over the absent pairs, each followed by an inverse_pd convergence test, and a
    matrix still above tol after SELECTION_MAX_SWEEPS comes back NaN, as does every non-PD one.
    """
    g = as_hermitian(np.asarray(h, dtype=complex))
    stack = g.reshape((-1,) + g.shape[-2:])
    pd = np.reshape(is_positive_definite(g), -1)
    stack[~pd] = np.nan
    active = np.flatnonzero(pd)
    order = _elimination_order(edges)
    if order is not None:
        work = stack[active]
        for v, clique, others in order:
            if others.size:
                fill_by_solve(work, v, others, clique)
        stack[active] = work
        return g
    absent = edges.absent_pairs
    updates = [(a, [b], np.delete(np.arange(edges.r), [a, b])) for a, b in absent]
    rows, cols = np.array(absent).T
    work = stack[active]
    for _ in range(SELECTION_MAX_SWEEPS):
        if not active.size:
            break
        for a, b, rest in updates:
            fill_by_solve(work, a, b, rest)
        inv = inverse_pd(work)
        scale = np.sqrt(np.abs(np.diagonal(inv, axis1=1, axis2=2)))  # sqrt((G^-1)_aa)
        done = np.max(np.abs(inv[:, rows, cols]) / (scale[:, rows] * scale[:, cols]), axis=1) <= tol
        stack[active[done]] = work[done]
        active, work = active[~done], work[~done]
    stack[active] = np.nan
    return g


def simulate_var1(process, n, burn_in, seed):
    """The serial VAR(1) recursion state = eps[t] + a @ state, one sample at a time.

    The state starts at the stationary draw normals[0] @ chol(Gamma_0).T.  a @ state is
    added column by column, eps[t] + a[:, 0] state[0] + a[:, 1] state[1] + ..., left to
    right, so the rounding is fixed and a stacked simulator can match it bit for bit.
    """
    normals = np.random.default_rng(seed).standard_normal((burn_in + n, process.r))
    cov = process.innovation_cov
    eps = normals if cov is None else normals @ np.linalg.cholesky(cov).T
    out = np.empty_like(eps)
    state = out[0] = normals[0] @ np.linalg.cholesky(process.stationary_cov).T
    for t in range(1, eps.shape[0]):
        state = sum((process.a[:, j] * state[j] for j in range(process.r)), eps[t])
        out[t] = state
    return out[burn_in:]


def smoothed_by_multiply(frame, kernel):
    """Smoothed periodogram matrices from complex window pair sums I[t - k] + I[t + k], each times its weight.

    I[j] = w[j] w[j]^H is formed as a complex (r, r, ..., n//2 + m) stack, in real arithmetic as
    the library forms its planes, so the weighted sums share their rounding.
    """
    h, half = kernel.m // 2, frame.n // 2
    w = np.moveaxis(frame.w[..., np.arange(1 - h, half + h + 1) % frame.n, :], -1, 0)
    x, y = w.real[:, np.newaxis], w.imag[:, np.newaxis]
    per = np.empty((frame.r,) + w.shape, dtype=complex)
    per.real = x * w.real + y * w.imag
    per.imag = y * w.real - x * w.imag
    total = kernel.weights[h] * per[..., h : h + half]
    for k, weight in enumerate(kernel.weights[h + 1 :], 1):
        total += weight * (per[..., h - k : h - k + half] + per[..., h + k : h + k + half])
    return np.moveaxis(total / kernel.wstar, (0, 1), (-2, -1))


def replications(config):
    """Reports per replication of a Monte Carlo config: the serial simulator, then run_many per sample."""
    from spectest.inference import run_many
    from spectest.simulation import replication_seed

    reports = []
    for k in range(config.replications):
        sample = simulate_var1(config.process, config.n, config.burn_in, replication_seed(config.seed, k))
        reports.append(run_many(sample, config.model, config.bandwidth, config.variants,
                                alpha_level=config.alpha_level))
    return reports
