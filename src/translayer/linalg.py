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
    Besides the input, it holds at most two n x n arrays at once: the
    symmetrized matrix and ``eigh``'s eigenvectors, then those and their
    reversed copy. Within ``eigh``, numpy's copy of the matrix and LAPACK's
    2n^2 workspace come on top, unseen by ``tracemalloc``.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if np.abs(a - a.T).max() > 1e-8 * max(1.0, np.abs(a).max()):
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
