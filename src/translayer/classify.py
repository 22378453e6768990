"""Downstream predictors for the histogram features.

The multiclass SVM is one-vs-rest with an L2-regularized L1-hinge binary
problem per class, solved in the dual by coordinate descent over shuffled
sample orders. There is no bias term, which keeps predictions exactly
invariant under joint feature/cost rescaling. The alternative predictor
projects features with variance-equalized principal components and
classifies by nearest cosine similarity to the projected training set,
which the fit reads off the eigenvectors it solves for.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .forkpool import fork_pool, one_blas_thread, shared_zeros
from .linalg import EIGENVALUE_FLOOR, fix_row_signs, jacobi_eigh
from .rng import Rng
from .types import reject_non_finite

SVM_TOL = 0.1
SVM_MAX_PASSES = 1000
# Largest training sets: both fits hold the n x n Gram, 1.15 GB at the
# largest digit corpus's 12000 (svm_train there took 108 s at jobs=2 and
# about 3.4 GB; wpca_fit at n=2400 took 39 s, d=147456, 2 vCPUs).
SVM_MAX_N, WPCA_MAX_N = 12000, 2400
# Bytes of a temporary of a feature batch: a block of dense columns (at
# least GRAM_WIDTH wide in the Gram), a run of Gram rows or column entries.
BUDGET = 8 * 2**20
# Gram tasks, whatever jobs: two, or one per run of Gram rows up to
# GRAM_STRIPS, as each densifies the rows below its strip again. A column
# more than DENSE_SHARE of the rows use enters as dense products, at least
# GRAM_WIDTH columns deep (sparse and dense multiply-adds took 2.2 and 0.03
# ns on glyph features).
GRAM_STRIPS, DENSE_SHARE, GRAM_WIDTH = 8, 0.08, 512

log = logging.getLogger("translayer")


@dataclass(frozen=True)
class LinearSvmModel:
    """One-vs-rest linear SVM. Its weights are stored Fortran-ordered, so
    scipy multiplies by ``weights.T`` without copying it."""

    kind = "svm"   # the config's classifier value
    classes: np.ndarray          # sorted ascending
    weights: np.ndarray          # (n_classes, dim), Fortran-ordered
    objective_history: Optional[list] = field(default=None, compare=False)

    def __post_init__(self):
        classes, weights = self.classes, self.weights
        if (classes.ndim != 1 or classes.size < 2
                or (classes[1:] <= classes[:-1]).any()
                or weights.ndim != 2 or weights.shape[0] != classes.size):
            raise ValueError(f"svm needs two or more sorted unique 1-D classes "
                             f"and one weight row per class, got classes "
                             f"{classes} and weights of shape {weights.shape}")
        reject_non_finite(weights=weights)
        object.__setattr__(self, "weights", np.asfortranarray(weights))


class GramSizeError(ValueError):
    """A training set larger than its classifier's n x n Gram allows."""


def check_gram_size(classifier: str, n: int):
    """Fail fast, before any extraction, on a training set over the limit."""
    limit = SVM_MAX_N if classifier == "svm" else WPCA_MAX_N
    if n > limit:
        raise GramSizeError(f"{classifier} would solve on a {n} x {n} Gram "
                            f"matrix of {n} training images ({8e-9 * n * n:.2f}"
                            f" GB); the limit is {limit}")


@dataclass(frozen=True)
class WpcaCosineModel:
    """Principal projection with rows scaled to unit component variance,
    and the projected training set the cosine nearest neighbor searches."""

    kind = "wpca_cosine"   # the config's classifier value
    mean: np.ndarray             # (feature_dim,)
    projection: np.ndarray       # (target_dim, feature_dim)
    train_vectors: np.ndarray    # (n, target_dim), n >= 2
    train_labels: np.ndarray     # (n,)

    def __post_init__(self):
        shapes = (self.mean.shape, self.projection.shape,
                  self.train_vectors.shape, self.train_labels.shape)
        mean, projection, vectors, labels = shapes
        if (len(projection) != 2 or len(labels) != 1 or mean != projection[1:]
                or vectors != (labels[0], projection[0]) or labels[0] < 2):
            raise ValueError("wpca_cosine needs mean, projection, train_vectors "
                             "and train_labels of shapes (d,), (k, d), (n, k), "
                             "(n,) with n >= 2, got " + ", ".join(map(str, shapes)))
        reject_non_finite(mean=self.mean, projection=self.projection,
                          train_vectors=self.train_vectors)

    @property
    def classes(self) -> np.ndarray:
        """The training labels, sorted and unique."""
        return np.unique(self.train_labels)


def as_csr(features, width: int | None = None) -> sp.csr_matrix:
    """A feature batch as a CSR matrix with sorted row indices, as
    :func:`_columns` needs; a ``width`` other than the model's raises.
    Unsigned integer data (counts) keep their dtype; other data become
    float64.

    Batches come from ``extract_features`` as such a matrix of counts and
    are returned as the same object, not a copy; others are converted.
    numpy computes on counts in their own dtype (a ``uint8`` sum or
    product wraps, ``np.sqrt`` gives float16), and scipy copies all of a
    matrix's data to float64 to multiply it by a float64 operand: the fits
    name the float dtype of each operation on counts, and take float64
    products a block of columns or a run of rows at a time.
    """
    x = features.tocsr() if sp.issparse(features) else sp.csr_matrix(np.asarray(features))
    if x.dtype.kind != "u":
        x = x.astype(np.float64, copy=False)
    if not x.has_sorted_indices:
        x = x.sorted_indices()
    if width is not None and x.shape[1] != width:
        raise ValueError(f"features have dimension {x.shape[1]}, the model "
                         f"{width}")
    return x


def _rows(x: sp.csr_matrix, r0: int, r1: int) -> sp.csr_matrix:
    """``x[r0:r1]`` as a view of ``x``'s data and indices, not a copy."""
    p0, p1 = x.indptr[r0], x.indptr[r1]
    return sp.csr_matrix((x.data[p0:p1], x.indices[p0:p1], x.indptr[r0:r1 + 1] - p0),
                         shape=(r1 - r0, x.shape[1]))


def _row_runs(x: sp.csr_matrix) -> list[tuple[int, int]]:
    """``(r0, r1)`` of each run of rows of ``x`` whose entries take about
    ``BUDGET / 8`` bytes as float64. A float64 copy of a run stays in the
    heap once freed: with runs of ``BUDGET`` bytes, dae_wpca's training
    left about 4 MB more resident (median of 20 runs)."""
    n = x.shape[0]
    step = max(1, BUDGET * n // (64 * max(x.nnz, 1)))
    return [(r0, min(r0 + step, n)) for r0 in range(0, n, step)]


def _column_blocks(n: int, d: int) -> list[tuple[int, int]]:
    """``(c0, c1)`` of each block of feature columns the fits densify:
    ``BUDGET`` bytes of an n-row batch, whatever ``jobs``."""
    width = max(1, BUDGET // (8 * n))
    return [(c0, min(c0 + width, d)) for c0 in range(0, d, width)]


def _first_at_or_after(x: sp.csr_matrix, col: int, r0: int) -> np.ndarray:
    """Per row of ``x[r0:]``, whose indices are sorted, the storage position
    of its first entry in a column >= ``col``: all rows bisected at once."""
    lo, hi = x.indptr[r0:-1].astype(np.int64), x.indptr[r0 + 1:].astype(np.int64)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        # a settled row has lo == mid == hi, which may be nnz; it stays put
        below = (lo < hi) & (x.indices[np.minimum(mid, x.nnz - 1)] < col)
        lo, hi = np.where(below, mid + 1, lo), np.where(below, hi, mid)
    return lo


def _columns(x: sp.csr_matrix, block, r0: int = 0) -> sp.csr_matrix:
    """``x[r0:, c0:c1]`` of an ``x`` with sorted indices, each row's entries
    taken from the range a bisection finds, where scipy's slice scans every
    entry."""
    c0, c1 = block
    start, stop = _first_at_or_after(x, c0, r0), _first_at_or_after(x, c1, r0)
    indptr = np.concatenate(([0], np.cumsum(stop - start)))
    pos = np.arange(indptr[-1]) + np.repeat(start - indptr[:-1], stop - start)
    return sp.csr_matrix((x.data[pos], x.indices[pos] - c0, indptr),
                         shape=(x.shape[0] - r0, c1 - c0))


def _gram_strip(state, strip) -> None:
    """Gram rows ``r0:r1`` from column r0 on, a run of rows at a time: the
    light columns' sparse product, then the dense blocks' in column order;
    then their mirror below the diagonal, a run at a time."""
    (x, dense_cols, x_light, gram), (r0, r1) = state, strip
    n = x.shape[0]
    step = max(1, BUDGET // (8 * n))
    runs = [(i, min(i + step, r1)) for i in range(r0, r1, step)]
    below = _rows(x_light, r0, n)
    for i, j in runs:
        gram[i:j, r0:] = (below @ x_light[i:j].T).T.toarray()
    width = max(GRAM_WIDTH, BUDGET // (8 * n))
    for c0 in range(0, dense_cols.size, width):
        cols = dense_cols[c0:c0 + width]
        dense = _columns(x, (cols[0], cols[-1] + 1), r0)[:, cols - cols[0]].toarray()
        dense = dense.astype(x_light.dtype, copy=False)
        for i, j in runs:
            gram[i:j, r0:] += dense[i - r0:j - r0] @ dense.T
    for i, j in runs:  # each run's own square is whole
        gram[j:, i:j] = gram[i:j, j:].T


def _product_dtype(x: sp.csr_matrix) -> type:
    """float32 if every partial sum of ``X X^T`` is an integer float32
    holds exactly, else float64.

    On unsigned integer data each partial sum of entry (i, j) is an
    integer of at most ``max(x) * sum(x[i])``: every term is non-negative
    and ``x[j, k] <= max(x)``. So float32 sums it exactly, in any order,
    when ``max(x) * max row sum < 2**24``. With the default 7x7 blocks a
    count is at most 49 and a row of 576 histograms sums to 576 * 49; a
    28x28 block allows 784 and 9 * 784.
    """
    if x.dtype.kind != "u":
        return np.float64
    largest = int(x.data.max(initial=0))
    if largest >= 2**24:
        return np.float64
    # scipy sums a row in uint64, which entries below 2**24 cannot wrap, but
    # copies the data it sums to uint64: a run of rows at a time
    row_sum = max((int(_rows(x, r0, r1).sum(axis=1).max()) for r0, r1 in _row_runs(x)),
                  default=0)
    return np.float32 if largest * row_sum < 2**24 else np.float64


def gram_matrix(x: sp.csr_matrix, jobs: int = 1) -> np.ndarray:
    """``X X^T`` of a CSR ``x`` with sorted indices in a ``shared_zeros``
    array, each task writing one strip's rows and columns (equal shares of
    the upper triangle). Counts small enough for :func:`_product_dtype`
    are multiplied in float32, other data in float64. On counts every
    partial sum is an integer, so the Gram is exact either way; other
    (``wpca_sqrt``) features can move in the last bits, but not with
    ``jobs``."""
    n, d = x.shape
    uses = np.zeros(d, np.int64)
    np.add.at(uses, x.indices, 1)  # bincount would copy them as intp
    light = uses <= DENSE_SHARE * n
    gram = shared_zeros((n, n))
    x_light = x[:, np.flatnonzero(light)].astype(_product_dtype(x), copy=False)
    state = (x, np.flatnonzero(~light), x_light, gram)
    strips = min(GRAM_STRIPS, max(2, -(-8 * n * n // BUDGET)))
    edges = [int(e) for e in np.rint(n - n * np.sqrt(np.linspace(1, 0, strips + 1)))]
    with fork_pool(jobs, state) as run:
        list(run(_gram_strip, [s for s in zip(edges, edges[1:]) if s[0] < s[1]]))
    return gram


def _solve_binary(gram, y, cost_c, gen, tol, max_passes):
    """Dual coordinate descent (Hsieh et al., ICML 2008) for one binary
    L1-hinge problem on the training rows' Gram matrix, until a pass's
    largest projected-gradient violation is below ``tol`` or after
    ``max_passes`` passes; returns ``alpha * y``, the objective after each
    pass and the last largest violation. It keeps the margins ``gram @
    (alpha * y)``: a step reads one, an update adds a Gram row, O(n)."""
    n = y.size
    qii = np.diag(gram)
    alpha = np.zeros(n)
    margin = np.zeros(n)
    history = []
    for _ in range(max_passes):
        max_violation = 0.0
        for i in gen.permutation(n).tolist():
            grad = y[i] * margin[i] - 1.0
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
                    margin += (a_new - a) * y[i] * gram[i]
                    alpha[i] = a_new
        objective = 0.5 * float((alpha * y) @ margin) - float(alpha.sum())
        if history and objective > history[-1] + 1e-9 * max(1.0, abs(history[-1])):
            raise RuntimeError("dual objective increased; solver state corrupt")
        history.append(objective)
        if max_violation < tol:
            break
    return alpha * y, history, max_violation


def _solve_class(problem, k):
    """Solve class ``k``'s binary problem: its ``alpha * y``, objective
    history and last pass's largest violation, as :func:`_solve_binary`
    returns them."""
    gram, y_all, classes, cost_c, rng = problem
    cls = int(classes[k])
    return _solve_binary(gram, np.where(y_all == cls, 1.0, -1.0), cost_c,
                         rng.stream(f"svm.class.{cls}"), SVM_TOL, SVM_MAX_PASSES)


def svm_train(features, labels, cost_c: float = 1.0,
              rng: Rng | None = None, jobs: int = 1) -> LinearSvmModel:
    """One-vs-rest linear SVM on sparse features.

    After one :func:`gram_matrix`, each class's task over
    ``forkpool.fork_pool(jobs, ...)`` returns its ``alpha *
    y``, a column of ``B``, drawing its own stream seeded from its label,
    so the result does not depend on ``jobs``. The weights are ``(X^T
    B)^T``, Fortran-ordered. Warnings are logged here, in class order. A
    ``cost_c`` not finite and > 0 raises."""
    if not 0.0 < cost_c < np.inf:
        raise ValueError("cost_c must be finite and > 0")
    x = as_csr(features)
    y_all = np.asarray(labels, dtype=np.int64)
    if y_all.shape[0] != x.shape[0]:
        raise ValueError("label/sample count mismatch")
    reject_non_finite(features=x.data)
    classes = np.unique(y_all)
    if classes.size < 2:
        raise ValueError("need at least two classes")
    rng = rng if rng is not None else Rng(0)

    problem = (gram_matrix(x, jobs), y_all, classes, cost_c, rng)
    with fork_pool(jobs, problem) as run:
        solved = list(run(_solve_class, range(classes.size)))
    for cls, (_, hist, violation) in zip(classes, solved):
        if violation >= SVM_TOL:
            log.warning("SVM class %d did not converge: %d passes, max "
                        "violation %.4g >= tolerance %g", int(cls), len(hist),
                        violation, SVM_TOL)
    coefs = np.column_stack([coef for coef, _, _ in solved])
    lifted = np.empty((x.shape[1], classes.size))
    for c0, c1 in _column_blocks(*x.shape):   # sums over rows, ascending
        lifted[c0:c1] = _columns(x, (c0, c1)).T @ coefs
    return LinearSvmModel(classes=classes, weights=lifted.T,
                          objective_history=[np.asarray(hist)
                                             for _, hist, _ in solved])


def svm_predict_many(model: LinearSvmModel, features) -> np.ndarray:
    """Argmax of per-class decision values; ties go to the smallest label.
    They are taken a run of rows at a time (:func:`_row_runs`), so scipy's
    float64 copy of the counts is one run's; each row sums only its own
    entries, so the bits are those of one whole product."""
    x = as_csr(features, model.weights.shape[1])
    scores = np.empty((x.shape[0], model.classes.size))
    for r0, r1 in _row_runs(x):
        scores[r0:r1] = _rows(x, r0, r1) @ model.weights.T
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


def _lift_block(state, block) -> None:
    """Write columns ``c0:c1`` of the lifted components into ``rows``."""
    x, dual, dual_sums, mean, norms, rows = state
    c0, c1 = block
    out = rows[:, c0:c1]
    np.multiply.outer(dual_sums, mean[c0:c1], out=out)
    np.subtract(np.asarray(_columns(x, block).T @ dual).T, out, out=out)
    out /= norms[:, None]


def _center_gram(gram: np.ndarray, x, mean: np.ndarray) -> None:
    """Center the uncentered Gram ``X X^T`` of ``x`` and divide it by n - 1,
    in place: the operations of ``(gram - xm[:, None] - xm[None, :] + mean
    @ mean) / (n - 1)``, ``xm = x @ mean``, in that order, with no n x n
    temporary. ``xm`` is taken a run of rows at a time, each row summed as
    in one product."""
    xm = np.concatenate([_rows(x, r0, r1) @ mean for r0, r1 in _row_runs(x)])
    gram -= xm[:, None]
    gram -= xm[None, :]
    gram += float(mean @ mean)
    gram /= x.shape[0] - 1


@one_blas_thread()
def wpca_fit(features, labels, target_dim: int,
             jobs: int = 1) -> WpcaCosineModel:
    """Mean-centered principal projection, rows scaled by 1/sqrt(eigenvalue),
    with the training set it projects.

    Components with eigenvalues at or below ``linalg.EIGENVALUE_FLOOR``
    times the features' sum of squares over n - 1 are dropped; asking for
    more components than survive raises.

    The eigenproblem is solved on the n x n Gram (:func:`gram_matrix`),
    whatever the feature dimension d. The lift ``X^T V`` stays a sparse
    product, one task per block of :func:`_column_blocks` over
    ``forkpool.fork_pool(jobs, ...)``, each writing its columns of the
    components into one ``forkpool.shared_zeros`` array; scipy sums every
    output over the rows of ``X`` in ascending order, whatever the column
    range, so the rows are those of one whole product. The training set
    is not projected again: its projection is ``sqrt(n - 1) * V * signs``,
    ``V`` the centered Gram's leading eigenvectors and ``signs`` the
    factors ``fix_row_signs`` applied, up to the eigensolve's rounding.
    """
    if target_dim < 1:
        raise ValueError("target_dim must be >= 1")
    x = as_csr(features)
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least two samples")
    mean = _column_means(x)
    gram_xx = gram_matrix(x, jobs)
    _center_gram(gram_xx, x, mean)
    eigvals, dual_vecs = jacobi_eigh(gram_xx)

    floor = (EIGENVALUE_FLOOR * np.einsum("i,i->", x.data, x.data, dtype=np.float64)
             / (n - 1))
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
        list(run(_lift_block, _column_blocks(n, d)))
    signs = fix_row_signs(rows)
    rows *= scale[:, None]
    return WpcaCosineModel(mean, rows, np.sqrt(n - 1) * dual * signs,
                           np.asarray(labels, dtype=np.int64))


# images per evaluation task, and per pool task of extraction
TASK_IMAGES = 32


def _projection_blocks(d: int, k: int) -> list[tuple[int, int]]:
    """``(c0, c1)`` of the equal blocks of feature columns :func:`wpca_apply`
    projects one at a time, from (d, k) alone. Each is at least as wide as
    a float64 block of ``BUDGET`` bytes over an evaluation task's
    ``TASK_IMAGES`` rows, and at least ``2**20 / k`` columns, so that a
    two-row product with ``k`` components stays above OpenBLAS's
    small-matrix cutoff of about 1e6 multiply-adds."""
    width = max(BUDGET // (8 * TASK_IMAGES), -(-2**20 // k))
    count = max(1, d // width)
    edges = [d * i // count for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _dense_blocks(x: sp.csr_matrix, blocks):
    """``x[:, c0:c1]`` dense in ``x``'s own dtype, for each of ``blocks`` in
    turn, which tile ``x``'s columns in order. ``x``'s indices are sorted,
    so a row's entries in a block are one slice of its storage: one search
    per row finds every block's, and each slice is copied whole. That suits
    an evaluation task's few rows, where :func:`_columns`, which bisects
    all rows at once and gathers entry by entry, took twice as long (5.6
    against 2.6 ms for a 32-row dae_wpca task)."""
    edges = [c0 for c0, _ in blocks] + [x.shape[1]]
    at = [p0 + np.searchsorted(x.indices[p0:p1], edges)
          for p0, p1 in zip(x.indptr[:-1], x.indptr[1:])]
    for b, (c0, c1) in enumerate(blocks):
        spans = [slice(a[b], a[b + 1]) for a in at]
        data, indices = (np.concatenate([v[:0]] + [v[s] for s in spans])
                         for v in (x.data, x.indices))
        indptr = np.cumsum([0] + [s.stop - s.start for s in spans])
        yield sp.csr_matrix((data, indices - c0, indptr),
                            shape=(x.shape[0], c1 - c0)).toarray()


@one_blas_thread()
def wpca_apply(model: WpcaCosineModel, features) -> np.ndarray:
    """Centered features times the projection, one column block of
    :func:`_projection_blocks` at a time: each block's columns are
    densified in the data's own dtype (:func:`_dense_blocks`) and centered
    into one reused float64 buffer. A row gets the same bits in any batch:
    the blocks do not follow the row count, and gemm gives a row those
    bits above the small-matrix cutoff, which every block's product
    passes. BLAS takes gemv for one row, which rounds apart, so a lone row
    is projected as a two-row gemm of itself."""
    x = as_csr(features, model.mean.shape[0])
    n = x.shape[0]
    rows = x[[0, 0]] if n == 1 else x
    k, d = model.projection.shape
    blocks = _projection_blocks(d, k)
    centered = np.empty((rows.shape[0], max(c1 - c0 for c0, c1 in blocks)))
    projected = np.zeros((rows.shape[0], k))
    for (c0, c1), dense in zip(blocks, _dense_blocks(rows, blocks)):
        block = centered[:, :c1 - c0]
        np.subtract(dense, model.mean[c0:c1], out=block)
        projected += block @ model.projection[:, c0:c1].T
    return projected[:n]


def cosine_nn(train_vectors: np.ndarray, train_labels: np.ndarray,
              query: np.ndarray) -> int:
    """Label of the training vector with the highest cosine similarity.

    Zero-norm training vectors never win, and a zero query has similarity 0
    to every nonzero training vector; ties go to the lowest index.
    """
    q = np.asarray(query, dtype=np.float64)
    qn = np.linalg.norm(q) or 1.0   # a zero query's products stay 0
    train = np.asarray(train_vectors, dtype=np.float64)
    norms = np.linalg.norm(train, axis=1)
    if (norms == 0.0).all():
        raise ValueError("no nonzero training vector")
    sims = np.where(norms > 0.0, (train @ q) / (np.where(norms > 0, norms, 1.0) * qn),
                    -np.inf)
    return int(np.asarray(train_labels)[int(np.argmax(sims))])
