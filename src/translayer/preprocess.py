"""Per-patch contrast normalization and whitening.

Both are applied to flattened patches before each layer's unsupervised
learning and to every window during extraction. The contrast step
subtracts the patch mean and divides by the population standard deviation
plus the constant ``c`` (``Config.lcn_c``, which keeps the denominator
positive); the whitening step multiplies by the symmetric decorrelating
matrix fit on the training patch sample. Patch matrices are (m, k1*k2)
arrays, one patch per row, from the training draw
(``filters.gather_patches``) as from extraction (``pipeline.window_rows``).
"""

from __future__ import annotations

import numpy as np

from .linalg import EIGENVALUE_FLOOR, jacobi_eigh
from .types import WhiteningTransform, as_2d


def lcn_rows(rows: np.ndarray, c: float) -> np.ndarray:
    """Contrast-normalize each row of a (m, d) array of flattened patches:
    (x - mean) / (population std + c), written over the deviations;
    ``rows`` itself is not modified."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    std = np.sqrt(np.square(centered).mean(axis=1, keepdims=True))
    return np.divide(centered, std + c, out=centered)


# the name training calls, which perfbench traces apart from extraction's
lcn_matrix = lcn_rows


def whiten_fit(patches, epsilon: float = 0.1) -> WhiteningTransform:
    """Fit U (D + eps I)^(-1/2) U^T on the sample covariance of the rows,
    with 1/(m-1) normalization.

    With ``epsilon=0`` the training sample must have full-rank covariance
    (no eigenvalue at or below ``linalg.EIGENVALUE_FLOOR`` times the
    patches' sum of squares over m - 1), otherwise a ValueError is raised.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    data = as_2d(patches)
    m = data.shape[0]
    if m < 2:
        raise ValueError("whitening needs at least two patches")
    centered = data - data.mean(axis=0)
    eigvals, eigvecs = jacobi_eigh((centered.T @ centered) / (m - 1))
    shifted = np.maximum(eigvals, 0.0) + epsilon  # clamp eigenvalue roundoff
    if shifted[-1] <= EIGENVALUE_FLOOR * np.einsum("ij,ij->", data, data) / (m - 1):
        raise ValueError("singular covariance: epsilon=0 needs full-rank patches")
    matrix = (eigvecs * (1.0 / np.sqrt(shifted))) @ eigvecs.T
    matrix = 0.5 * (matrix + matrix.T)
    return WhiteningTransform(matrix=matrix)


def whiten_apply(transform: WhiteningTransform, patches) -> np.ndarray:
    """Whitened patch rows: ``patches @ matrix``, as the matrix is
    symmetric."""
    data = as_2d(patches)
    if transform.dim != data.shape[1]:
        raise ValueError("whitening dimension does not match patch size")
    return data @ transform.matrix
