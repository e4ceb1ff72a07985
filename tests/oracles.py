"""Direct per-matrix reference computations the tests compare the batched paths to."""

import numpy as np
import scipy.linalg


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
