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

from .forkpool import fork_pool, shared_zeros
from .linalg import EIGENVALUE_FLOOR, fix_row_signs, jacobi_eigh
from .rng import Rng

SVM_TOL = 0.1
SVM_MAX_PASSES = 1000
# Largest training set, and so n x n WPCA eigenproblem, that training
# accepts. The fit densifies one BUDGET block at a time, so what grows with
# n is the n x n Gram, its solve and the time to sum it: at n=2400 and
# dae_wpca's d=147456 (integer counts, 25.7k nonzeros per row), wpca_fit
# at jobs=2 took 39 s and held 475 MB above its input on a 2-vCPU VM; the
# dense n x d copy it replaced took 708 MB at n=600.
WPCA_MAX_N = 2400
# Bytes of the largest temporary the WPCA fit makes of the training batch
# in any one process: one dense block of feature columns, or one run of
# scaled entries when summing the column means.
BUDGET = 32 * 2**20

log = logging.getLogger("translayer")


def _reject_non_finite(**arrays):
    """Reject a NaN or inf in a classifier array, which would otherwise
    predict without any error (argmax picks a NaN decision value)."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} holds a non-finite value")


@dataclass(frozen=True)
class LinearSvmModel:
    classes: np.ndarray          # sorted ascending
    weights: np.ndarray          # (n_classes, dim)
    objective_history: Optional[list] = field(default=None, compare=False)

    def __post_init__(self):
        classes, weights = self.classes, self.weights
        if (classes.ndim != 1 or (np.diff(classes) <= 0).any()
                or weights.ndim != 2 or weights.shape[0] != classes.size):
            raise ValueError(f"svm needs sorted unique 1-D classes and one "
                             f"weight row per class, got classes {classes} "
                             f"and weights of shape {weights.shape}")
        _reject_non_finite(weights=weights)


class WpcaSizeError(ValueError):
    """The WPCA eigenproblem is larger than ``WPCA_MAX_N``."""


def check_wpca_size(n_samples: int):
    """Fail fast, before any extraction, on a WPCA eigenproblem larger
    than ``WPCA_MAX_N``."""
    if n_samples > WPCA_MAX_N:
        raise WpcaSizeError(
            f"wpca_cosine would eigendecompose a {n_samples} x {n_samples} "
            f"Gram matrix of {n_samples} training images; the limit is "
            f"{WPCA_MAX_N}")


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

    def __post_init__(self):
        shapes = (self.wpca.mean.shape, self.wpca.projection.shape,
                  self.train_vectors.shape, self.train_labels.shape)
        mean, projection, vectors, labels = shapes
        if (len(projection) != 2 or len(labels) != 1 or mean != projection[1:]
                or vectors != (labels[0], projection[0])):
            raise ValueError("wpca_cosine needs mean, projection, train_vectors "
                             "and train_labels of shapes (d,), (k, d), (n, k), "
                             "(n,), got " + ", ".join(map(str, shapes)))
        _reject_non_finite(mean=self.wpca.mean, projection=self.wpca.projection,
                           train_vectors=self.train_vectors)

    @property
    def classes(self) -> np.ndarray:
        """The training labels, sorted and unique."""
        return np.unique(self.train_labels)


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


def _solve_class(problem, k):
    """Solve class ``k``'s binary problem into row ``k`` of the weights.

    Returns the class's objective history and the largest violation of
    its last pass.
    """
    x, indices, y_all, classes, cost_c, qii, rng, weights = problem
    cls = int(classes[k])
    y = np.where(y_all == cls, 1.0, -1.0)
    gen = rng.stream(f"svm.class.{cls}")
    w, hist, violation = _solve_binary(
        x.indptr, indices, x.data, y, weights.shape[1], cost_c, qii, gen,
        SVM_TOL, SVM_MAX_PASSES)
    weights[k] = w
    return np.asarray(hist), violation


def svm_train(features, labels, cost_c: float = 1.0,
              rng: Rng | None = None, jobs: int = 1) -> LinearSvmModel:
    """One-vs-rest linear SVM on sparse features.

    The classes are solved by ``run(_solve_class, range(n_classes), 1)``
    over ``forkpool.fork_pool(min(jobs, n_classes), problem)``, each
    writing its weights into one ``shared_zeros`` array at every ``jobs``;
    only the objective histories and final violations are returned. Each
    class draws its own stream, seeded from its label, so the result does
    not depend on ``jobs``. Non-convergence warnings are logged here, in
    class order.
    """
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

    # the squares on x's own index arrays, which x.multiply(x) would copy;
    # the row sums are the same bit for bit
    qii = np.asarray(sp.csr_matrix((x.data * x.data, x.indices, x.indptr),
                                   shape=x.shape).sum(axis=1)).ravel()

    weights = shared_zeros((classes.size, x.shape[1]))
    problem = (x, x.indices.astype(np.intp), y_all, classes, cost_c, qii,
               rng, weights)
    with fork_pool(min(jobs, classes.size), problem) as run:
        solved = list(run(_solve_class, range(classes.size), 1))
    for cls, (hist, violation) in zip(classes, solved):
        if violation >= SVM_TOL:
            log.warning("SVM class %d did not converge: %d passes, max "
                        "violation %.4g >= tolerance %g", int(cls), len(hist),
                        violation, SVM_TOL)
    return LinearSvmModel(classes=classes, weights=weights,
                          objective_history=[hist for hist, _ in solved])


def _as_csr_of_width(features, width: int) -> sp.csr_matrix:
    """``as_csr(features)``, rejecting a width other than the model's."""
    x = as_csr(features)
    if x.shape[1] != width:
        raise ValueError(f"features have dimension {x.shape[1]}, the model "
                         f"{width}")
    return x


def decision_values(model: LinearSvmModel, features) -> np.ndarray:
    x = _as_csr_of_width(features, model.weights.shape[1])
    return np.asarray(x @ model.weights.T)


def svm_predict_many(model: LinearSvmModel, features) -> np.ndarray:
    """Argmax of per-class decision values; ties go to the smallest label."""
    scores = decision_values(model, features)
    return model.classes[np.argmax(scores, axis=1)]


def _column_means(x: sp.csr_matrix) -> np.ndarray:
    """``x.mean(axis=0)`` bit for bit, without the scaled copy of ``x``
    scipy makes: each entry times 1/n, added to its column in storage
    order, a bounded run of entries at a time."""
    n, d = x.shape
    mean = np.zeros(d)
    step = BUDGET // 8
    for k0 in range(0, x.nnz, step):
        np.add.at(mean, x.indices[k0:k0 + step], x.data[k0:k0 + step] * (1.0 / n))
    return mean


def _column_blocks(n: int, d: int) -> list[tuple[int, int]]:
    """``(c0, c1)`` of each block of feature columns the WPCA fit
    densifies: ``BUDGET`` bytes of an n-row batch, whatever ``jobs``."""
    width = max(1, BUDGET // (8 * n))
    return [(c0, min(c0 + width, d)) for c0 in range(0, d, width)]


def _gram_block(x, block) -> np.ndarray:
    """The n x n Gram ``D D^T`` of the dense column block ``D``."""
    c0, c1 = block
    dense = x[:, c0:c1].toarray()
    return dense @ dense.T


def _lift_block(state, block) -> None:
    """Write columns ``c0:c1`` of the lifted components into ``rows``."""
    x, dual, dual_sums, mean, norms, rows = state
    c0, c1 = block
    out = rows[:, c0:c1]
    np.multiply.outer(dual_sums, mean[c0:c1], out=out)
    np.subtract(np.asarray(x[:, c0:c1].T @ dual).T, out, out=out)
    out /= norms[:, None]


def _center_gram(gram: np.ndarray, x, mean: np.ndarray) -> None:
    """Center the uncentered Gram ``X X^T`` of ``x`` and divide it by n - 1,
    in place: the operations of ``(gram - xm[:, None] - xm[None, :] + mean
    @ mean) / (n - 1)``, ``xm = x @ mean``, in that order, with no n x n
    temporary."""
    xm = np.asarray(x @ mean).ravel()
    gram -= xm[:, None]
    gram -= xm[None, :]
    gram += float(mean @ mean)
    gram /= x.shape[0] - 1


def wpca_fit(features, target_dim: int, jobs: int = 1) -> WpcaModel:
    """Mean-centered principal projection, rows scaled by 1/sqrt(eigenvalue).

    Components with eigenvalues at or below ``linalg.EIGENVALUE_FLOOR``
    times the features' sum of squares over n - 1 are dropped; asking for
    more components than survive raises.

    The eigenproblem is solved on the n x n Gram matrix, whatever the
    feature dimension d, and the fit is two fan-outs over
    ``forkpool.fork_pool(jobs, ...)``, each task one block of feature
    columns from :func:`_column_blocks` (a split that does not depend on
    ``jobs``), so no process densifies more than ``BUDGET`` bytes of the
    batch. The uncentered Gram ``X X^T`` is the sum, in block order, of
    each block's dense product. On integer counts every partial sum is an
    integer no larger than the largest row's squared norm (576 * 49**2
    for 576 blocks of 7 x 7 pixels), far below 2**53, so the Gram is
    exact in any block split and summation order; non-integer
    (``wpca_sqrt``) features can move in the last bits. The lift ``X^T
    V`` stays a sparse product, each task writing its columns of the
    components into one ``forkpool.shared_zeros`` array; scipy sums every
    output over the rows of ``X`` in ascending order, whatever the column
    range, so the rows are those of one whole product.
    """
    if target_dim < 1:
        raise ValueError("target_dim must be >= 1")
    x = as_csr(features)
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least two samples")
    mean = _column_means(x)
    blocks = _column_blocks(n, d)
    gram_xx = np.zeros((n, n))
    with fork_pool(jobs, x) as run:
        for partial in run(_gram_block, blocks, 1):
            gram_xx += partial
    _center_gram(gram_xx, x, mean)
    eigvals, dual_vecs = jacobi_eigh(gram_xx)

    floor = EIGENVALUE_FLOOR * np.einsum("i,i->", x.data, x.data) / (n - 1)
    usable = int((eigvals > floor).sum())
    if target_dim > usable:
        raise ValueError(
            f"target_dim {target_dim} exceeds usable rank {usable}")
    scale = 1.0 / np.sqrt(eigvals[:target_dim])
    # lift to feature space only the dual vectors the projection uses
    dual = dual_vecs[:, :target_dim]
    dual_sums = np.array([float(v.sum()) for v in dual.T])
    norms = np.sqrt((n - 1) * eigvals[:target_dim])
    rows = shared_zeros((target_dim, d))
    with fork_pool(jobs, (x, dual, dual_sums, mean, norms, rows)) as run:
        list(run(_lift_block, blocks, 1))
    fix_row_signs(rows)
    rows *= scale[:, None]
    return WpcaModel(mean=mean, projection=rows)


def wpca_apply(model: WpcaModel, features) -> np.ndarray:
    dense = _as_csr_of_width(features, model.mean.shape[0]).toarray()
    dense -= model.mean  # in place: one dense copy of the batch, not two
    return dense @ model.projection.T


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
