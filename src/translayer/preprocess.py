"""Per-patch contrast normalization and whitening.

Both are applied to flattened patches before each layer's unsupervised
learning and, by default, to every window during extraction. The contrast
step subtracts the patch mean and divides by the population standard
deviation plus a constant; the whitening step multiplies by the symmetric
decorrelating matrix fit on the training patch sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import jacobi_eigh
from .types import PatchMatrix, WhiteningTransform, as_2d


@dataclass(frozen=True)
class LcnParams:
    """Additive constant in the contrast denominator (keeps it finite)."""

    c: float = 10.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("lcn constant c must be > 0")


def center(patches: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Patches laid out along ``axis`` minus their means, and their
    population standard deviations (``axis`` kept with length 1)."""
    mean = patches.mean(axis=axis, keepdims=True)
    centered = patches - mean
    std = np.sqrt(np.square(centered).mean(axis=axis, keepdims=True))
    return centered, std


def lcn_rows(rows: np.ndarray, params: LcnParams) -> np.ndarray:
    """Contrast-normalize each row of a (m, d) array of flattened patches."""
    centered, std = center(rows, axis=1)
    return centered / (std + params.c)


def lcn_patch(patch: np.ndarray, params: LcnParams) -> np.ndarray:
    """Normalize one flattened patch: (x - mean) / (population std + c)."""
    vec = np.asarray(patch, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError("patch must be a flat vector")
    return lcn_rows(vec[None, :], params)[0]


def lcn_matrix(patches, params: LcnParams):
    """Apply :func:`lcn_patch` independently to every column."""
    # contiguous rows keep the per-patch reduction order identical to lcn_patch
    rows = np.ascontiguousarray(as_2d(patches).T)
    out = lcn_rows(rows, params).T
    if isinstance(patches, PatchMatrix):
        return PatchMatrix(shape=patches.shape, data=out)
    return out


def column_covariance(data: np.ndarray) -> np.ndarray:
    """Sample covariance of column observations, 1/(m-1) normalization."""
    m = data.shape[1]
    centered = data - data.mean(axis=1, keepdims=True)
    return (centered @ centered.T) / (m - 1)


def whiten_fit(patches, epsilon: float = 0.1) -> WhiteningTransform:
    """Fit U (D + eps I)^(-1/2) U^T on the sample covariance of the columns.

    With ``epsilon=0`` the training sample must have full-rank covariance,
    otherwise the inverse square root blows up and a ValueError is raised.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    data = as_2d(patches)
    if data.shape[1] < 2:
        raise ValueError("whitening needs at least two patches")
    cov = column_covariance(data)
    eigvals, eigvecs = jacobi_eigh(cov)
    shifted = np.maximum(eigvals, 0.0) + epsilon  # clamp eigenvalue roundoff
    if (shifted <= 0.0).any():
        raise ValueError("singular covariance: epsilon=0 needs full-rank patches")
    matrix = (eigvecs * (1.0 / np.sqrt(shifted))) @ eigvecs.T
    matrix = 0.5 * (matrix + matrix.T)
    return WhiteningTransform(matrix=matrix)


def whiten_apply(transform: WhiteningTransform, patches):
    data = as_2d(patches)
    if transform.dim != data.shape[0]:
        raise ValueError("whitening dimension does not match patch size")
    out = transform.matrix @ data
    if isinstance(patches, PatchMatrix):
        return PatchMatrix(shape=patches.shape, data=out)
    return out
