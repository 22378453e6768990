import itertools
import logging
import multiprocessing
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from translayer import Rng, cosine_nn, svm_train, wpca_apply, wpca_fit
from translayer import classify, forkpool
from translayer.classify import as_csr, svm_predict_many, wpca_fit as _wpca_fit


SEPARABLE_X = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0], [5.0, 1.0]])
SEPARABLE_Y = np.array([0, 0, 1, 1])

XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([1, 1, 0, 0])


# --- linear SVM ------------------------------------------------------------

def test_separable_toy_reaches_full_accuracy():
    model = svm_train(SEPARABLE_X, SEPARABLE_Y, cost_c=1.0, rng=Rng(0))
    preds = svm_predict_many(model, SEPARABLE_X)
    assert np.array_equal(preds, SEPARABLE_Y)


def linearly_realizable(points, signs):
    """LP feasibility: does some (w, b) satisfy sign(w.x + b) = signs?"""
    # strict inequalities via margin 1: s_i (w.x_i + b) >= 1 is feasible
    # iff the sign pattern is realizable (scale w, b up as needed)
    a_ub = np.array([[-s * x[0], -s * x[1], -s] for x, s in zip(points, signs)])
    b_ub = -np.ones(len(points))
    res = linprog(c=np.zeros(3), A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * 3, method="highs")
    return res.status == 0


def test_xor_enumeration_oracle_and_cap():
    # oracle: enumerate all sign patterns on the four points; only the two
    # XOR patterns are unrealizable, so no linear rule beats 3/4
    best = 0
    for signs in itertools.product([-1, 1], repeat=4):
        if linearly_realizable(XOR_X, signs):
            truth = np.where(XOR_Y == 1, 1, -1)
            best = max(best, int((np.asarray(signs) == truth).sum()))
    assert best == 3

    model = svm_train(XOR_X, XOR_Y, cost_c=1.0, rng=Rng(1))
    acc = float((svm_predict_many(model, XOR_X) == XOR_Y).mean())
    assert acc <= 0.75


def test_duplicated_samples_give_same_grid_predictions():
    grid = np.array([[x, y] for x in np.linspace(-1, 6, 8)
                     for y in np.linspace(-1, 2, 4)])
    base = svm_train(SEPARABLE_X, SEPARABLE_Y, cost_c=1.0, rng=Rng(2))
    doubled = svm_train(np.vstack([SEPARABLE_X, SEPARABLE_X]),
                        np.concatenate([SEPARABLE_Y, SEPARABLE_Y]),
                        cost_c=1.0, rng=Rng(2))
    assert np.array_equal(svm_predict_many(base, grid),
                          svm_predict_many(doubled, grid))


def test_dual_objective_monotone():
    gen = np.random.default_rng(3)
    x = gen.random((60, 10))
    y = (x[:, 0] + 0.3 * gen.standard_normal(60) > 0.5).astype(int)
    model = svm_train(x, y, cost_c=1.0, rng=Rng(3))
    for hist in model.objective_history:
        assert (np.diff(hist) <= 1e-9).all()


def test_scale_invariance_with_rescaled_cost():
    kappa = 8.0
    grid = np.array([[x, y] for x in np.linspace(-1, 6, 8)
                     for y in np.linspace(-1, 2, 4)])
    base = svm_train(SEPARABLE_X, SEPARABLE_Y, cost_c=1.0, rng=Rng(4))
    scaled = svm_train(kappa * SEPARABLE_X, SEPARABLE_Y,
                       cost_c=1.0 / kappa**2, rng=Rng(4))
    assert np.array_equal(svm_predict_many(base, grid),
                          svm_predict_many(scaled, kappa * grid))


def test_predict_tie_breaks_to_smallest_label():
    model = svm_train(SEPARABLE_X, SEPARABLE_Y, cost_c=1.0, rng=Rng(5))
    # zero vector scores 0 for every class under the no-bias form
    assert svm_predict_many(model, np.zeros((1, 2)))[0] == 0


@pytest.mark.parametrize("width", [1, 3])
def test_feature_width_must_match_model(width):
    model = svm_train(SEPARABLE_X, SEPARABLE_Y, cost_c=1.0, rng=Rng(5))
    with pytest.raises(ValueError,
                       match=f"features have dimension {width}, the model 2"):
        svm_predict_many(model, np.ones((1, width)))


def test_sparse_input_accepted():
    x = sp.csr_matrix(SEPARABLE_X)
    model = svm_train(x, SEPARABLE_Y, cost_c=1.0, rng=Rng(6))
    assert np.array_equal(svm_predict_many(model, x), SEPARABLE_Y)


def test_as_csr_returns_float64_csr_without_copying():
    x = sp.csr_matrix(SEPARABLE_X)
    assert as_csr(x) is x


def test_svm_train_leaves_features_unchanged():
    x = sp.csr_matrix(np.random.default_rng(8).random((12, 5)))
    y = np.arange(12) % 3
    before = [a.copy() for a in (x.data, x.indices, x.indptr)]
    svm_train(x, y, cost_c=1.0, rng=Rng(8))
    for arr, old in zip((x.data, x.indices, x.indptr), before):
        assert arr.dtype == old.dtype and arr.tobytes() == old.tobytes()


def test_single_class_rejected():
    with pytest.raises(ValueError):
        svm_train(SEPARABLE_X, np.zeros(4, dtype=int), cost_c=1.0)


def test_non_finite_feature_rejected():
    bad = SEPARABLE_X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        svm_train(bad, SEPARABLE_Y, cost_c=1.0)


def test_training_deterministic_per_seed():
    gen = np.random.default_rng(7)
    x = gen.random((40, 6))
    y = gen.integers(0, 3, size=40)
    a = svm_train(x, y, cost_c=1.0, rng=Rng(11))
    b = svm_train(x, y, cost_c=1.0, rng=Rng(11))
    assert np.array_equal(a.weights, b.weights)


def reference_svm_train(features, labels, cost_c, rng):
    """svm_train with the reference coordinate step: the gradient and the
    update each gather ``w`` through the CSR's own int32 indices."""
    x = as_csr(features)
    y_all = np.asarray(labels, dtype=np.int64)
    qii = np.asarray(x.multiply(x).sum(axis=1)).ravel()
    weights, histories = [], []
    for cls in np.unique(y_all):
        y = np.where(y_all == cls, 1.0, -1.0)
        gen = rng.stream(f"svm.class.{int(cls)}")
        w = np.zeros(x.shape[1])
        alpha = np.zeros(y.size)
        history = []
        for _ in range(classify.SVM_MAX_PASSES):
            max_violation = 0.0
            for i in gen.permutation(y.size):
                idx = x.indices[x.indptr[i]:x.indptr[i + 1]]
                vals = x.data[x.indptr[i]:x.indptr[i + 1]]
                grad = y[i] * float(w[idx] @ vals) - 1.0
                a = alpha[i]
                if a <= 0.0:
                    violation = min(grad, 0.0)
                elif a >= cost_c:
                    violation = max(grad, 0.0)
                else:
                    violation = grad
                max_violation = max(max_violation, abs(violation))
                if abs(violation) > 1e-12:
                    if qii[i] > 0.0:
                        a_new = min(max(a - grad / qii[i], 0.0), cost_c)
                    else:
                        a_new = cost_c if grad < 0.0 else 0.0
                    if a_new != a:
                        w[idx] += (a_new - a) * y[i] * vals
                        alpha[i] = a_new
            history.append(0.5 * float(w @ w) - float(alpha.sum()))
            if max_violation < classify.SVM_TOL:
                break
        weights.append(w)
        histories.append(np.asarray(history))
    return np.stack(weights), histories


def assert_matches_reference(features, labels, cost_c, seed):
    model = svm_train(features, labels, cost_c=cost_c, rng=Rng(seed))
    weights, histories = reference_svm_train(features, labels, cost_c, Rng(seed))
    assert np.array_equal(model.weights, weights)
    assert len(model.objective_history) == len(histories)
    for got, want in zip(model.objective_history, histories):
        assert np.array_equal(got, want)


def test_sparse_solver_bit_identical_to_reference_step():
    # histogram-like counts with repeated values over four classes; row 5
    # is all zero, which takes the qii == 0 branch
    gen = np.random.default_rng(12)
    counts = gen.integers(0, 4, size=(48, 300)).astype(np.float64)
    counts[gen.random(counts.shape) < 0.8] = 0.0
    counts[5] = 0.0
    labels = gen.integers(0, 4, size=48)
    x = sp.csr_matrix(counts)
    assert x.indices.dtype == np.int32
    assert_matches_reference(x, labels, 0.5, 13)


def test_dense_solver_bit_identical_to_reference_step():
    gen = np.random.default_rng(14)
    x = gen.random((40, 12))
    y = (x[:, 0] + x[:, 1] + 0.4 * gen.standard_normal(40) > 1.0).astype(int)
    y[::7] = 2
    assert_matches_reference(x, y, 1.0, 15)


def test_pass_cap_logs_warning(monkeypatch, caplog):
    gen = np.random.default_rng(3)
    x = gen.random((60, 10))
    y = (x[:, 0] + 0.3 * gen.standard_normal(60) > 0.5).astype(int)
    monkeypatch.setattr(classify, "SVM_MAX_PASSES", 1)
    with caplog.at_level("WARNING", logger="translayer"):
        model = svm_train(x, y, cost_c=1.0, rng=Rng(3))
    assert [len(h) for h in model.objective_history] == [1, 1]
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 2
    for record, cls in zip(warnings, (0, 1)):
        text = record.getMessage()
        assert record.name == "translayer"
        assert f"class {cls} " in text and "1 passes" in text
        assert "max violation" in text
        assert f"tolerance {classify.SVM_TOL:g}" in text


def test_converged_training_logs_no_warning(caplog):
    with caplog.at_level("WARNING", logger="translayer"):
        model = svm_train(SEPARABLE_X, SEPARABLE_Y, cost_c=1.0, rng=Rng(0))
    assert max(len(h) for h in model.objective_history) < classify.SVM_MAX_PASSES
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def count_features(n_classes, seed):
    """Sparse histogram-like counts with one shifted column per class."""
    gen = np.random.default_rng(seed)
    labels = np.arange(90) % n_classes
    counts = gen.integers(0, 4, size=(90, 200)).astype(np.float64)
    counts[gen.random(counts.shape) < 0.8] = 0.0
    counts[np.arange(90), labels] += 3.0
    return sp.csr_matrix(counts), labels


@pytest.mark.parametrize("jobs,n_classes", [(2, 5), (4, 3)])
def test_parallel_classes_match_serial(jobs, n_classes):
    # jobs=4 over 3 classes: more workers asked for than classes or cores
    x, y = count_features(n_classes, seed=21)
    serial = svm_train(x, y, cost_c=0.5, rng=Rng(6))
    parallel = svm_train(x, y, cost_c=0.5, rng=Rng(6), jobs=jobs)
    assert np.array_equal(serial.weights, parallel.weights)
    assert len(parallel.objective_history) == n_classes
    for got, want in zip(parallel.objective_history, serial.objective_history):
        assert np.array_equal(got, want)


def test_parallel_warnings_match_serial(monkeypatch, caplog):
    x, y = count_features(4, seed=22)
    monkeypatch.setattr(classify, "SVM_MAX_PASSES", 1)
    messages = []
    for jobs in (1, 2):
        caplog.clear()
        with caplog.at_level("WARNING", logger="translayer"):
            svm_train(x, y, cost_c=1.0, rng=Rng(7), jobs=jobs)
        messages.append([r.getMessage() for r in caplog.records
                         if r.levelname == "WARNING"])
    assert len(messages[0]) == 4
    assert [f"class {cls} " in text for cls, text in enumerate(messages[0])] == [True] * 4
    assert messages[1] == messages[0]


def test_worker_error_reaches_caller(monkeypatch):
    def broken(*args):
        raise RuntimeError("solver state corrupt")

    monkeypatch.setattr(classify, "_solve_binary", broken)
    x, y = count_features(3, seed=23)
    with pytest.raises(RuntimeError, match="solver state corrupt"):
        svm_train(x, y, rng=Rng(8), jobs=2)
    assert multiprocessing.active_children() == []


# --- whitened principal projection -------------------------------------

def test_isotropic_sample_unit_variances():
    gen = np.random.default_rng(8)
    x = gen.standard_normal((2000, 5))
    model = wpca_fit(x, 5)
    proj = wpca_apply(model, x)
    var = proj.var(axis=0, ddof=1)
    assert (var > 0.9).all() and (var < 1.1).all()
    assert np.abs(proj.mean(axis=0)).max() < 1e-9


def test_line_data_unit_variance():
    t = np.linspace(-2, 2, 50)
    x = np.stack([t, 2 * t, -t], axis=1)
    model = wpca_fit(x, 1)
    proj = wpca_apply(model, x)
    assert abs(proj[:, 0].var(ddof=1) - 1.0) < 1e-6


def test_target_dim_zero_rejected():
    with pytest.raises(ValueError):
        wpca_fit(np.random.default_rng(9).random((10, 3)), 0)


def test_target_dim_beyond_rank_rejected():
    t = np.linspace(-1, 1, 20)
    x = np.stack([t, 2 * t], axis=1)  # rank 1
    with pytest.raises(ValueError, match="rank"):
        wpca_fit(x, 2)


@pytest.mark.parametrize("scores,target_dim", [
    (np.linspace(-1, 1, 6), 2),   # rank 1
    (np.ones(6), 1),              # identical rows: rank 0
])
def test_target_dim_beyond_rank_rejected_on_gram_route(scores, target_dim):
    x = np.outer(scores, np.arange(1.0, 11.0))  # d > n
    with pytest.raises(ValueError, match="rank"):
        wpca_fit(x, target_dim)


@pytest.mark.parametrize("rows,width", [
    (6, 17),    # d > n
    (20, 3),    # d <= n: an n x n Gram of rank at most d
])
def test_identical_rows_have_rank_zero(rows, width):
    # centering leaves rounding error of either sign, and the largest
    # eigenvalue is that error; the floor must come from the raw scale
    x = np.outer(np.full(rows, 0.1), np.arange(1.0, width + 1.0))
    with pytest.raises(ValueError, match="usable rank 0"):
        wpca_fit(x, 1)


def test_gram_route_matches_covariance_route():
    gen = np.random.default_rng(10)
    x = gen.standard_normal((12, 30))  # d > n
    wide = _wpca_fit(x, 4)
    proj = wpca_apply(wide, x)
    var = proj.var(axis=0, ddof=1)
    assert np.abs(var - 1.0).max() < 1e-6
    assert np.abs(proj.mean(axis=0)).max() < 1e-9


def test_wpca_accepts_sparse():
    gen = np.random.default_rng(11)
    dense = gen.random((25, 40))
    dense[dense < 0.7] = 0.0
    model = wpca_fit(sp.csr_matrix(dense), 3)
    proj = wpca_apply(model, dense)
    assert np.abs(proj.var(axis=0, ddof=1) - 1.0).max() < 1e-6


@pytest.mark.parametrize("width", [30, 50])
def test_wpca_feature_width_must_match_model(width):
    model = wpca_fit(np.random.default_rng(12).random((25, 40)), 3)
    with pytest.raises(ValueError,
                       match=f"features have dimension {width}, the model 40"):
        wpca_apply(model, sp.csr_matrix((2, width)))


def block_counts(n, blocks, bins, seed, one_bin=False):
    """Integer block-histogram features: each row spreads 49 pixels per
    block over ``bins`` bins, or puts all 49 in one bin (``one_bin``)."""
    gen = np.random.default_rng(seed)
    if one_bin:
        counts = np.zeros((n, blocks, bins))
        hit = gen.integers(0, bins, size=(n, blocks))
        counts[np.arange(n)[:, None], np.arange(blocks)[None, :], hit] = 49.0
    else:
        counts = gen.multinomial(49, np.full(bins, 1.0 / bins),
                                 size=(n, blocks)).astype(np.float64)
    return sp.csr_matrix(counts.reshape(n, blocks * bins))


@pytest.mark.parametrize("n,blocks,bins,one_bin", [
    (30, 16, 16, False),
    (12, 576, 256, True),    # every block histogram holds 49 in one bin
])
def test_dense_gram_equals_sparse_gram_on_counts(n, blocks, bins, one_bin):
    x = block_counts(n, blocks, bins, seed=n, one_bin=one_bin)
    dense = x.toarray()
    sparse_gram = (x @ x.T).toarray()
    if one_bin:
        assert sparse_gram.max() == blocks * 49 ** 2
    assert np.array_equal(dense @ dense.T, sparse_gram)


def wpca_fit_gram_reference(x, target_dim):
    """The Gram route before the dense product: sparse ``x @ x.T`` and
    components lifted in column layout, signs fixed per column."""
    from translayer.linalg import fix_row_signs, jacobi_eigh
    n = x.shape[0]
    mean = np.asarray(x.mean(axis=0)).ravel()
    gram_xx = (x @ x.T).toarray()
    xm = np.asarray(x @ mean).ravel()
    gram = (gram_xx - xm[:, None] - xm[None, :] + float(mean @ mean)) / (n - 1)
    eigvals, dual_vecs = jacobi_eigh(gram)
    dual = dual_vecs[:, :target_dim]
    dual_sums = np.array([float(v.sum()) for v in dual.T])
    components = ((np.asarray(x.T @ dual) - mean[:, None] * dual_sums)
                  / np.sqrt((n - 1) * eigvals[:target_dim]))
    rows = components.T.copy()
    fix_row_signs(rows)
    scale = 1.0 / np.sqrt(eigvals[:target_dim])
    return mean, rows * scale[:, None]


@pytest.mark.parametrize("n,blocks,bins,target_dim,one_bin", [
    (30, 16, 16, 8, False),
    (25, 9, 256, 24, False),
    (20, 36, 64, 5, True),
])
def test_gram_route_matches_sparse_reference_on_counts(n, blocks, bins,
                                                      target_dim, one_bin):
    x = block_counts(n, blocks, bins, seed=100 + n, one_bin=one_bin)
    model = wpca_fit(x, target_dim)
    mean, projection = wpca_fit_gram_reference(x, target_dim)
    assert np.array_equal(model.mean, mean)
    assert np.array_equal(model.projection, projection)
    assert model.projection.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n,target_dim", [(2, 1), (3, 2), (30, 8)])
@pytest.mark.parametrize("width", [1, 7, 50])
def test_blocked_gram_route_matches_sparse_reference(monkeypatch, jobs, n,
                                                    target_dim, width):
    # d = 144 columns in blocks of 1, 7 and 50: 7 and 50 leave a short
    # last block, and the split must not change a bit at any jobs
    monkeypatch.setattr(classify, "BUDGET", 8 * n * width)
    x = block_counts(n, 9, 16, seed=200 + n)
    assert len(classify._column_blocks(n, x.shape[1])) == -(-144 // width)
    model = wpca_fit(x, target_dim, jobs=jobs)
    mean, projection = wpca_fit_gram_reference(x, target_dim)
    assert np.array_equal(model.mean, mean)
    assert np.array_equal(model.projection, projection)


@pytest.mark.parametrize("budget", [8, 8 * 1000, classify.BUDGET])
def test_column_means_equal_scipy_mean(monkeypatch, budget):
    # square-rooted counts, as wpca_sqrt feeds them: not integers, so the
    # order of the additions shows in the bits
    monkeypatch.setattr(classify, "BUDGET", budget)
    x = block_counts(40, 30, 16, seed=41)
    x.data = np.sqrt(x.data)
    assert classify._column_means(x).tobytes() == \
        np.asarray(x.mean(axis=0)).ravel().tobytes()


def test_gram_route_never_holds_the_dense_batch():
    # 60 x 147456 counts are 70.8 MB dense; the fit densifies one column
    # block of at most BUDGET bytes at a time
    x = block_counts(60, 576, 256, seed=60, one_bin=True)
    dense_bytes = x.shape[0] * x.shape[1] * 8
    assert dense_bytes > 2 * classify.BUDGET
    tracemalloc.start()
    try:
        wpca_fit(x, 4, jobs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


def test_wpca_apply_sub_batches_reproduce_the_batch_rows():
    # evaluation projects a test set task by task, so BLAS must give every
    # row of a batch of two or more rows the bits one product of the whole
    # batch gives. gemm does at the benchmark's shapes (d = 147456). A
    # one-row batch goes to gemv, and OpenBLAS sends products of at most
    # about 1e6 multiply-adds to a small-matrix kernel; the bits of either
    # can depend on the batch.
    gen = np.random.default_rng(9)
    x = block_counts(12, 576, 256, seed=9)
    model = classify.WpcaModel(mean=np.asarray(x.mean(axis=0)).ravel(),
                               projection=gen.standard_normal((24, x.shape[1])))
    with forkpool.one_blas_thread():
        whole = wpca_apply(model, x)
        for start, stop in itertools.combinations(range(x.shape[0] + 1), 2):
            if stop - start >= 2:
                assert np.array_equal(wpca_apply(model, x[start:stop]),
                                      whole[start:stop]), (start, stop)


# --- cosine nearest neighbor -------------------------------------------

def test_exact_match_wins():
    train = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([3, 9])
    assert cosine_nn(train, labels, np.array([0.0, 1.0])) == 9


def test_scale_invariance():
    train = np.array([[1.0, 0.2], [0.3, 1.0]])
    labels = np.array([0, 1])
    q = np.array([0.9, 0.4])
    assert cosine_nn(train, labels, q) == cosine_nn(train, labels, 5.0 * q)
    assert cosine_nn(train, labels, q) == cosine_nn(train, labels, 2.0 * train[0]) == 0


def test_three_angles_nearest_wins():
    angles = np.deg2rad([10.0, 40.0, 170.0])
    train = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    labels = np.array([7, 8, 9])
    # exhaustive oracle: cosine decreases with angle from the query [1, 0]
    sims = train @ np.array([1.0, 0.0])
    assert int(np.argmax(sims)) == 0
    assert cosine_nn(train, labels, np.array([1.0, 0.0])) == 7


def test_zero_query_rejected():
    with pytest.raises(ValueError):
        cosine_nn(np.eye(2), np.array([0, 1]), np.zeros(2))


def test_zero_train_vectors_excluded():
    train = np.array([[0.0, 0.0], [0.5, 0.5]])
    labels = np.array([4, 6])
    assert cosine_nn(train, labels, np.array([1.0, 1.0])) == 6
    with pytest.raises(ValueError):
        cosine_nn(np.zeros((2, 2)), labels, np.array([1.0, 0.0]))


def test_gram_centered_in_place_with_the_same_bits():
    gen = np.random.default_rng(31)
    n = 600
    x = sp.random(n, 900, density=0.05, format="csr", random_state=gen,
                  data_rvs=lambda k: gen.integers(1, 40, k).astype(float))
    mean = classify._column_means(x)
    gram = (x @ x.T).toarray()
    xm = np.asarray(x @ mean).ravel()
    want = (gram - xm[:, None] - xm[None, :] + float(mean @ mean)) / (n - 1)
    tracemalloc.start()
    try:
        classify._center_gram(gram, x, mean)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gram.tobytes() == want.tobytes()
    assert peak < gram.nbytes // 10
