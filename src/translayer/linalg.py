"""Symmetric eigendecomposition by round-robin Jacobi rotations.

Hand-rolled instead of LAPACK so that eigenvector bit patterns are
identical across BLAS builds and platforms; filter banks and whitening
matrices derived from them then reproduce exactly. Each sweep visits
every (p, q) plane once in round-robin order (Brent & Luk 1985): n - 1
steps (n for odd n) of n/2 disjoint planes, whose rotations commute and
are applied together as elementwise array operations. No step calls a
matrix product, so the result does not depend on how BLAS blocks or
orders its sums. Convergence is reached when the off-diagonal Frobenius
norm falls below 1e-12 (scaled by the input norm for large-magnitude
matrices), with a hard cap of 100 sweeps.
"""

from __future__ import annotations

import numpy as np

OFFDIAG_TOL = 1e-12
MAX_SWEEPS = 100


class EigenConvergenceError(RuntimeError):
    """Raised when the sweep cap is hit before the off-diagonal norm drops."""


def _offdiag_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def fix_row_signs(rows: np.ndarray) -> None:
    """Flip, in place, each row so its largest-magnitude entry is positive.

    Ties pick the first such entry. Makes eigenvector (and therefore
    filter) signs reproducible. The scan runs along rows, so a
    C-contiguous ``rows`` is read in memory order.
    """
    lead = np.argmax(np.abs(rows), axis=1)
    rows[rows[np.arange(rows.shape[0]), lead] < 0.0] *= -1.0


def round_robin_schedule(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep of disjoint ``(p, q)`` index pairs, ``p < q``, per step.

    The circle method: index 0 stays put while the others rotate one seat
    per step, so every pair meets exactly once in a sweep. An odd ``n`` is
    padded with a dummy index ``n`` whose pairs are dropped.
    """
    m = n + n % 2
    seats = list(range(m))
    steps = []
    for _ in range(m - 1):
        pairs = [sorted((seats[i], seats[m - 1 - i])) for i in range(m // 2)]
        pairs = [pq for pq in pairs if pq[1] < n]
        steps.append((np.array([p for p, _ in pairs], dtype=np.intp),
                      np.array([q for _, q in pairs], dtype=np.intp)))
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return steps


def _rotation(a: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Golub-Van Loan symmetric Schur rotations for the disjoint (p, q)
    planes, as ``(c, s)`` column vectors.

    A zero ``a[p, q]``, or a ``tau`` whose square overflows, gives the
    identity rotation (c = 1, s = 0).
    """
    apq = a[p, q]
    nonzero = apq != 0.0
    with np.errstate(over="ignore"):
        tau = (a[q, q] - a[p, p]) / np.where(nonzero, 2.0 * apq, 1.0)
        t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    t[~nonzero] = 0.0
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c[:, None], (t * c)[:, None]


def _rotate_rows(m: np.ndarray, p: np.ndarray, q: np.ndarray, c, s):
    rp, rq = m[p], m[q]
    m[p] = c * rp - s * rq
    m[q] = s * rp + c * rq


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as the corresponding columns (a
    C-contiguous array), each column's sign fixed by :func:`fix_row_signs`.
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
    vt = np.eye(n)  # eigenvectors as rows, so every rotation is a row gather
    if n == 1:
        return a[0, :1].copy(), vt

    thresh = OFFDIAG_TOL * max(1.0, float(np.linalg.norm(a)))
    converged = _offdiag_norm(a) <= thresh
    schedule = round_robin_schedule(n)
    for _ in range(MAX_SWEEPS):
        if converged:
            break
        for p, q in schedule:
            c, s = _rotation(a, p, q)
            _rotate_rows(a, p, q, c, s)
            # the column rotation, done on rows of the transpose: the working
            # matrix alternates between A and A^T, equal up to rounding
            a = np.ascontiguousarray(a.T)
            _rotate_rows(a, p, q, c, s)
            a[p, q] = 0.0
            a[q, p] = 0.0
            _rotate_rows(vt, p, q, c, s)
        converged = _offdiag_norm(a) <= thresh
    if not converged:
        raise EigenConvergenceError(
            f"jacobi sweeps exhausted ({MAX_SWEEPS}) before convergence")

    eigvals = np.diag(a).copy()
    order = np.argsort(-eigvals, kind="stable")
    rows = vt[order]
    fix_row_signs(rows)
    return eigvals[order], np.ascontiguousarray(rows.T)
