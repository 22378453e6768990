"""Symmetric eigendecomposition by cyclic Jacobi rotations.

Hand-rolled instead of LAPACK so that eigenvector bit patterns are
identical across BLAS builds and platforms; filter banks and whitening
matrices derived from them then reproduce exactly. Convergence is reached
when the off-diagonal Frobenius norm falls below 1e-12 (scaled by the
input norm for large-magnitude matrices), with a hard cap of 100 sweeps.
"""

from __future__ import annotations

import math

import numpy as np

OFFDIAG_TOL = 1e-12
MAX_SWEEPS = 100


class EigenConvergenceError(RuntimeError):
    """Raised when the sweep cap is hit before the off-diagonal norm drops."""


def _offdiag_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    Ties pick the first such entry. Makes eigenvector (and therefore
    filter) signs reproducible.
    """
    out = vectors.copy()
    lead = np.argmax(np.abs(out), axis=0)
    flip = out[lead, np.arange(out.shape[1])] < 0.0
    out[:, flip] = -out[:, flip]
    return out


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as the corresponding columns, signs
    fixed by :func:`fix_signs`.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if np.abs(a - a.T).max() > 1e-8 * max(1.0, np.abs(a).max()):
        raise ValueError("matrix is not symmetric")
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a[0, :1].copy(), v

    thresh = OFFDIAG_TOL * max(1.0, float(np.linalg.norm(a)))
    converged = _offdiag_norm(a) <= thresh
    for _ in range(MAX_SWEEPS):
        if converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # Golub-Van Loan symmetric Schur rotation for the (p,q) plane
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c

                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                a[p, q] = 0.0
                a[q, p] = 0.0

                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        converged = _offdiag_norm(a) <= thresh
    if not converged:
        raise EigenConvergenceError(
            f"jacobi sweeps exhausted ({MAX_SWEEPS}) before convergence")

    eigvals = np.diag(a).copy()
    order = np.argsort(-eigvals, kind="stable")
    return eigvals[order], fix_signs(v[:, order])
