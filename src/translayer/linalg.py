"""Symmetric eigendecomposition for the PCA, whitening and WPCA fits.

:func:`jacobi_eigh` (named before it called LAPACK) solves with numpy's
``eigh`` on one BLAS thread, whose sums then do not depend on the thread
count, and sorts eigenvalues in descending order, each eigenvector's sign
fixed by :func:`fix_row_signs`. A solve that does not converge raises
``numpy.linalg.LinAlgError``.
"""

from __future__ import annotations

import numpy as np

from .forkpool import one_blas_thread

# An eigenvalue at or below this times the data's sum of squares before
# centering, over n - 1, counts as zero. Centering leaves rounding of that
# scale; on rank-0 data the largest eigenvalue is that rounding itself.
EIGENVALUE_FLOOR = 1e-10


def fix_row_signs(rows: np.ndarray) -> np.ndarray:
    """Flip, in place, each row so its largest-magnitude entry is positive,
    and return the +-1 factor applied to each row.

    Ties pick the first such entry. Makes eigenvector (and therefore
    filter) signs reproducible. One row at a time, so the only temporary
    is one row's magnitudes; a C-contiguous ``rows`` is read in memory
    order.
    """
    signs = np.ones(len(rows))
    for k, row in enumerate(rows):
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0
            signs[k] = -1.0
    return signs


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as the corresponding columns (a
    C-contiguous array), each column's sign fixed by :func:`fix_row_signs`.
    The input is checked in row blocks; besides it, at most two n x n
    arrays are held at once: the symmetrized matrix and ``eigh``'s
    eigenvectors, then those and their reversed copy.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    step = max(1, 2**17 // max(a.shape[0], 1))   # row blocks of about 1 MiB
    blocks = [(i, i + step) for i in range(0, a.shape[0], step)]
    if not all(np.isfinite(a[i:j]).all() for i, j in blocks):
        raise ValueError("matrix contains non-finite entries")
    scale = max(np.abs(a[i:j]).max() for i, j in blocks)
    asymmetry = max(np.abs(a[i:j] - a[:, i:j].T).max() for i, j in blocks)
    if asymmetry > 1e-8 * max(1.0, scale):
        raise ValueError("matrix is not symmetric")
    sym = a + a.T
    sym *= 0.5
    with one_blas_thread():
        eigvals, eigvecs = np.linalg.eigh(sym)
    del sym
    vectors = np.ascontiguousarray(eigvecs[:, ::-1])  # descending columns
    del eigvecs
    fix_row_signs(vectors.T)
    return eigvals[::-1].copy(), vectors
