"""Downstream predictors for the histogram features.

The multiclass SVM is one-vs-rest with an L2-regularized L1-hinge binary
problem per class, solved in the dual by coordinate descent over shuffled
sample orders. There is no bias term, which keeps predictions exactly
invariant under joint feature/cost rescaling. The alternative predictor
projects features with variance-equalized principal components and
classifies by nearest cosine similarity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .linalg import fix_signs, jacobi_eigh
from .rng import Rng

SVM_TOL = 0.1
SVM_MAX_PASSES = 1000
EIGENVALUE_FLOOR = 1e-10  # relative to the largest eigenvalue

log = logging.getLogger("translayer")


@dataclass(frozen=True)
class LinearSvmModel:
    classes: np.ndarray          # sorted ascending
    weights: np.ndarray          # (n_classes, dim)
    objective_history: Optional[list] = field(default=None, compare=False)


@dataclass(frozen=True)
class WpcaModel:
    """Principal projection with rows scaled to unit component variance."""

    mean: np.ndarray
    projection: np.ndarray       # (target_dim, feature_dim)


@dataclass(frozen=True)
class WpcaCosineModel:
    wpca: WpcaModel
    train_vectors: np.ndarray    # projected training set
    train_labels: np.ndarray


def as_csr(features) -> sp.csr_matrix:
    """A feature batch as a float64 CSR matrix.

    Batches come from ``extract_features`` as float64 CSR and are returned
    as the same object, not a copy; dense arrays are converted.
    """
    if sp.issparse(features):
        return features.tocsr().astype(np.float64, copy=False)
    return sp.csr_matrix(np.asarray(features, dtype=np.float64))


def _solve_binary(indptr, indices, data, y, dim, cost_c, qii, gen,
                  tol, max_passes):
    """Dual coordinate descent for one binary L1-hinge problem.

    Stops when the largest projected-gradient violation seen in a full
    pass drops below ``tol``, or after ``max_passes`` passes. Returns the
    primal weights, the dual objective value after each pass and the
    largest violation of the last pass.

    Each step gathers the sample's weights once and, on an update,
    scatters them back once; the arithmetic is that of
    ``w[idx] += (a_new - a) * y[i] * vals``, so the weights are
    bit-identical to that form. ``indices`` should be ``np.intp``, which
    numpy would otherwise convert on every fancy index.
    """
    n = y.size
    w = np.zeros(dim)
    alpha = np.zeros(n)
    history = []
    for _ in range(max_passes):
        order = gen.permutation(n)
        max_violation = 0.0
        for i in order:
            lo, hi = indptr[i], indptr[i + 1]
            idx = indices[lo:hi]
            vals = data[lo:hi]
            wi = w[idx]
            grad = y[i] * float(wi @ vals) - 1.0
            a = alpha[i]
            if a <= 0.0:
                violation = min(grad, 0.0)
            elif a >= cost_c:
                violation = max(grad, 0.0)
            else:
                violation = grad
            if abs(violation) > max_violation:
                max_violation = abs(violation)
            if abs(violation) > 1e-12:
                if qii[i] > 0.0:
                    a_new = min(max(a - grad / qii[i], 0.0), cost_c)
                else:
                    a_new = cost_c if grad < 0.0 else 0.0
                if a_new != a:
                    wi += (a_new - a) * y[i] * vals
                    w[idx] = wi
                    alpha[i] = a_new
        objective = 0.5 * float(w @ w) - float(alpha.sum())
        if history and objective > history[-1] + 1e-9 * max(1.0, abs(history[-1])):
            raise RuntimeError("dual objective increased; solver state corrupt")
        history.append(objective)
        if max_violation < tol:
            break
    return w, history, max_violation


def svm_train(features, labels, cost_c: float = 1.0,
              rng: Rng | None = None) -> LinearSvmModel:
    """One-vs-rest linear SVM on sparse features."""
    x = as_csr(features)
    y_all = np.asarray(labels, dtype=np.int64)
    if y_all.shape[0] != x.shape[0]:
        raise ValueError("label/sample count mismatch")
    if not np.isfinite(x.data).all():
        raise ValueError("non-finite feature value")
    classes = np.unique(y_all)
    if classes.size < 2:
        raise ValueError("need at least two classes")
    if cost_c <= 0:
        raise ValueError("cost_c must be > 0")
    rng = rng if rng is not None else Rng(0)

    qii = np.asarray(x.multiply(x).sum(axis=1)).ravel()

    dim = x.shape[1]
    indices = x.indices.astype(np.intp)
    weights = np.zeros((classes.size, dim))
    histories = []
    for k, cls in enumerate(classes):
        y = np.where(y_all == cls, 1.0, -1.0)
        gen = rng.stream(f"svm.class.{int(cls)}")
        w, hist, violation = _solve_binary(
            x.indptr, indices, x.data, y, dim, cost_c, qii, gen,
            SVM_TOL, SVM_MAX_PASSES)
        if violation >= SVM_TOL:
            log.warning("SVM class %d did not converge: %d passes, max "
                        "violation %.4g >= tolerance %g", int(cls), len(hist),
                        violation, SVM_TOL)
        weights[k] = w
        histories.append(np.asarray(hist))
    return LinearSvmModel(classes=classes, weights=weights,
                          objective_history=histories)


def decision_values(model: LinearSvmModel, features) -> np.ndarray:
    x = as_csr(features)
    if x.shape[1] > model.weights.shape[1]:
        raise ValueError("feature dimension exceeds the model's")
    return np.asarray(x @ model.weights[:, :x.shape[1]].T)


def svm_predict_many(model: LinearSvmModel, features) -> np.ndarray:
    """Argmax of per-class decision values; ties go to the smallest label."""
    scores = decision_values(model, features)
    return model.classes[np.argmax(scores, axis=1)]


def wpca_fit(features, target_dim: int) -> WpcaModel:
    """Mean-centered principal projection, rows scaled by 1/sqrt(eigenvalue).

    Components with eigenvalues below 1e-10 of the largest are dropped;
    asking for more components than survive raises.
    """
    if target_dim < 1:
        raise ValueError("target_dim must be >= 1")
    x = as_csr(features)
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least two samples")
    mean = np.asarray(x.mean(axis=0)).ravel()

    if d <= n:
        centered = x.toarray() - mean
        cov = (centered.T @ centered) / (n - 1)
        eigvals, eigvecs = jacobi_eigh(cov)
        components = eigvecs  # columns
    else:
        # Gram-side decomposition; avoids densifying wide feature matrices
        gram_xx = (x @ x.T).toarray()
        xm = np.asarray(x @ mean).ravel()
        gram = (gram_xx - xm[:, None] - xm[None, :] + float(mean @ mean)) / (n - 1)
        eigvals, dual_vecs = jacobi_eigh(gram)
        keep_for_lift = eigvals > max(eigvals[0], 0.0) * EIGENVALUE_FLOOR
        lift = []
        for r in range(int(keep_for_lift.sum())):
            v = dual_vecs[:, r]
            u = np.asarray(x.T @ v).ravel() - mean * float(v.sum())
            lift.append(u / np.sqrt((n - 1) * eigvals[r]))
        components = fix_signs(np.stack(lift, axis=1)) if lift else np.zeros((d, 0))
        eigvals = eigvals[:components.shape[1]]

    floor = max(float(eigvals[0]), 0.0) * EIGENVALUE_FLOOR
    usable = int((eigvals > floor).sum())
    if target_dim > usable:
        raise ValueError(
            f"target_dim {target_dim} exceeds usable rank {usable}")
    scale = 1.0 / np.sqrt(eigvals[:target_dim])
    projection = components[:, :target_dim].T * scale[:, None]
    return WpcaModel(mean=mean, projection=projection)


def wpca_apply(model: WpcaModel, features) -> np.ndarray:
    return (as_csr(features).toarray() - model.mean) @ model.projection.T


def cosine_nn(train_vectors: np.ndarray, train_labels: np.ndarray,
              query: np.ndarray) -> int:
    """Label of the training vector with the highest cosine similarity.

    Zero-norm training vectors never win; ties go to the lowest index.
    """
    q = np.asarray(query, dtype=np.float64)
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise ValueError("query vector is all zero")
    train = np.asarray(train_vectors, dtype=np.float64)
    norms = np.linalg.norm(train, axis=1)
    if (norms == 0.0).all():
        raise ValueError("no nonzero training vector")
    sims = np.where(norms > 0.0, (train @ q) / (np.where(norms > 0, norms, 1.0) * qn),
                    -np.inf)
    return int(np.asarray(train_labels)[int(np.argmax(sims))])
