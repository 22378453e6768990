import contextlib
import itertools
import logging
import multiprocessing
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import linprog

from translayer import Config, Rng, cosine_nn, svm_train, wpca_apply, wpca_fit
from translayer import classify, experiment, forkpool
from translayer.classify import as_csr, svm_predict_many, wpca_fit as _wpca_fit


SEPARABLE_X = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0], [5.0, 1.0]])
SEPARABLE_Y = np.array([0, 0, 1, 1])

XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([1, 1, 0, 0])


# --- linear SVM ------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_svm_weights_are_stored_fortran_ordered(jobs):
    # prediction multiplies by weights.T, which is then C-ordered
    model = svm_train(SEPARABLE_X, SEPARABLE_Y, cost_c=1.0, rng=Rng(0),
                      jobs=jobs)
    assert model.weights.flags.f_contiguous
    rows = np.ascontiguousarray(model.weights)
    assert not rows.flags.f_contiguous
    again = classify.LinearSvmModel(model.classes, rows)
    assert again.weights.flags.f_contiguous
    assert np.array_equal(again.weights, rows)


def test_svm_classes_out_of_order_across_the_int64_range_rejected():
    # np.diff would wrap -2**63 - 5 round to a positive step
    with pytest.raises(ValueError, match="sorted unique"):
        classify.LinearSvmModel(np.array([5, -2**63]), np.zeros((2, 3)))


@pytest.mark.parametrize("count", [0, 1])
def test_svm_of_fewer_than_two_classes_rejected(count):
    # svm_train needs two classes; a model of fewer cannot have been trained
    with pytest.raises(ValueError, match="svm needs two or more"):
        classify.LinearSvmModel(np.arange(count), np.zeros((count, 3)))


@pytest.mark.parametrize("count", [0, 1])
def test_wpca_cosine_of_fewer_than_two_training_vectors_rejected(count):
    # wpca_fit needs two samples; a model of fewer cannot have been fitted
    with pytest.raises(ValueError, match="n >= 2"):
        classify.WpcaCosineModel(np.zeros(3), np.ones((2, 3)),
                                 np.ones((count, 2)), np.arange(count))


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


@pytest.mark.parametrize("fit, rows, message", [
    (lambda x, y: svm_train(x, y[:-1]), 4, "label/sample count mismatch"),
    (lambda x, y: wpca_fit(x, y, 1), 1, "need at least two samples"),
    (lambda x, y: wpca_fit(x, y[:-1], 1), 4, "label/sample count mismatch"),
], ids=["svm-one-label-too-few", "wpca-one-row", "wpca-one-label-too-few"])
def test_fit_on_mismatched_or_too_few_rows_rejected(monkeypatch, fit, rows,
                                                    message):
    def no_gram(*args):
        raise AssertionError("summed the Gram before checking the rows")

    monkeypatch.setattr(classify, "_gram_state", no_gram)
    with pytest.raises(ValueError, match=message):
        fit(SEPARABLE_X[:rows], SEPARABLE_Y[:rows])


def test_non_finite_feature_rejected():
    bad = SEPARABLE_X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        svm_train(bad, SEPARABLE_Y, cost_c=1.0)


@pytest.mark.parametrize("cost_c", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_cost_not_finite_and_positive_rejected_before_any_pass(monkeypatch,
                                                               cost_c):
    def no_gram(*args):
        raise AssertionError("summed the Gram before checking cost_c")

    monkeypatch.setattr(classify, "_gram_state", no_gram)
    with pytest.raises(ValueError, match="cost_c must be finite and > 0"):
        svm_train(SEPARABLE_X, SEPARABLE_Y, cost_c=cost_c, rng=Rng(0))


def test_svm_memory_does_not_grow_with_nonzeros():
    # 150 rows of 25.7k nonzeros each: 3.9M nonzeros against a 150 x 150
    # Gram. The fit holds a few blocks of dense columns, the light columns'
    # entries, the Gram and the (d, K) lift, not an 8-byte copy of the
    # indices
    x = block_counts(150, 576, 256, seed=80)
    labels = np.arange(150) % 4
    assert x.nnz > 100 * 150**2
    tracemalloc.start()
    try:
        svm_train(x, labels, cost_c=1.0, rng=Rng(80), jobs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * x.nnz


def test_training_deterministic_per_seed():
    gen = np.random.default_rng(7)
    x = gen.random((40, 6))
    y = gen.integers(0, 3, size=40)
    a = svm_train(x, y, cost_c=1.0, rng=Rng(11))
    b = svm_train(x, y, cost_c=1.0, rng=Rng(11))
    assert np.array_equal(a.weights, b.weights)


def reference_svm_train(features, labels, cost_c, rng):
    """svm_train with the primal coordinate step of Hsieh et al.: the
    gradient and the update each gather ``w`` through the CSR's own int32
    indices. Also returns how near any decision of the path came to its
    threshold: a pass's largest violation to the tolerance, and an
    unclipped step to 0 or ``cost_c`` (relative to ``cost_c``). Another
    rounding of the same arithmetic can take the other side of a decision
    that near. The 1e-12 step threshold is left out: it lies far above the
    rounding of a violation that is zero in exact arithmetic."""
    x = as_csr(features)
    y_all = np.asarray(labels, dtype=np.int64)
    qii = np.asarray(x.multiply(x).sum(axis=1)).ravel()
    weights, histories, closest = [], [], np.inf
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
                        step = a - grad / qii[i]
                        closest = min(closest, abs(step) / cost_c,
                                      abs(step - cost_c) / cost_c)
                        a_new = min(max(step, 0.0), cost_c)
                    else:
                        a_new = cost_c if grad < 0.0 else 0.0
                    if a_new != a:
                        w[idx] += (a_new - a) * y[i] * vals
                        alpha[i] = a_new
            history.append(0.5 * float(w @ w) - float(alpha.sum()))
            closest = min(closest, abs(max_violation - classify.SVM_TOL))
            if max_violation < classify.SVM_TOL:
                break
        weights.append(w)
        histories.append(np.asarray(history))
    return np.stack(weights), histories, closest


def reference_gram_svm_train(features, labels, cost_c, rng, gram):
    """svm_train with a plain-Python Gram-form step: each sample's margin
    ``m[i] = gram[i] @ (alpha * y)`` kept up to date one entry at a time;
    the objective's dot product and sum taken as the solver takes them.
    Returns the weights, lifted one training row at a time in row order,
    and the objective histories."""
    x = as_csr(features)
    y_all = np.asarray(labels, dtype=np.int64)
    n = y_all.size
    rows = [[float(v) for v in row] for row in gram]
    weights, histories = [], []
    for cls in np.unique(y_all):
        y = [1.0 if label == cls else -1.0 for label in y_all]
        gen = rng.stream(f"svm.class.{int(cls)}")
        alpha = [0.0] * n
        margin = [0.0] * n
        history = []
        for _ in range(classify.SVM_MAX_PASSES):
            max_violation = 0.0
            for i in gen.permutation(n):
                grad = y[i] * margin[i] - 1.0
                a = alpha[i]
                if a <= 0.0:
                    violation = min(grad, 0.0)
                elif a >= cost_c:
                    violation = max(grad, 0.0)
                else:
                    violation = grad
                max_violation = max(max_violation, abs(violation))
                if abs(violation) > 1e-12:
                    if rows[i][i] > 0.0:
                        a_new = min(max(a - grad / rows[i][i], 0.0), cost_c)
                    else:
                        a_new = cost_c if grad < 0.0 else 0.0
                    if a_new != a:
                        step = (a_new - a) * y[i]
                        for j in range(n):
                            margin[j] += step * rows[i][j]
                        alpha[i] = a_new
            coef = np.array(alpha) * np.array(y)
            history.append(0.5 * float(coef @ np.array(margin))
                           - float(np.array(alpha).sum()))
            if max_violation < classify.SVM_TOL:
                break
        w = np.zeros(x.shape[1])
        for i in range(n):
            lo, hi = x.indptr[i], x.indptr[i + 1]
            w[x.indices[lo:hi]] += coef[i] * x.data[lo:hi]
        weights.append(w)
        histories.append(np.asarray(history))
    return np.stack(weights), histories


def assert_bit_identical_to_gram_reference(features, labels, cost_c, seed,
                                           gram, jobs=1):
    model = svm_train(features, labels, cost_c=cost_c, rng=Rng(seed), jobs=jobs)
    weights, histories = reference_gram_svm_train(features, labels, cost_c,
                                                  Rng(seed), gram)
    assert np.array_equal(model.weights, weights)
    assert model.weights.flags["F_CONTIGUOUS"]
    assert len(model.objective_history) == len(histories)
    for got, want in zip(model.objective_history, histories):
        assert np.array_equal(got, want)


# how near a decision threshold, or how near a tie of two decision values,
# rounding can decide which side the primal and Gram forms take
TIE = 1e-9


def assert_matches_primal_oracle(features, labels, cost_c, seed,
                                 skip_near_ties=False, rtol=1e-12):
    """Equal pass counts and training-set predictions; weights and
    objective histories within ``rtol`` of each class's largest value (for
    the weights, or of its largest term).

    Both forms do the same arithmetic up to rounding, so a path that comes
    within ``TIE`` of a decision threshold fails, or with
    ``skip_near_ties`` is rejected (``assume``), and a row whose two
    largest decision values are within ``TIE`` is left out of the
    predictions. Integer counts meet such exact ties: a pass's
    largest violation of exactly ``SVM_TOL``, or two classes' equal
    decision values.
    """
    model = svm_train(features, labels, cost_c=cost_c, rng=Rng(seed))
    weights, histories, closest = reference_svm_train(features, labels,
                                                      cost_c, Rng(seed))
    if skip_near_ties:
        assume(closest >= TIE)
    assert closest >= TIE
    assert [len(h) for h in model.objective_history] == [len(h) for h in histories]
    values = as_csr(features) @ weights.T
    top2 = np.sort(values, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > TIE * np.maximum(1.0, np.abs(top2[:, 1]))
    oracle = model.classes[np.argmax(values, axis=1)]
    assert np.array_equal(svm_predict_many(model, features)[clear], oracle[clear])
    # a weight sums terms alpha * x of at most cost_c * max(x) each, which
    # may cancel to zero
    term = cost_c * np.abs(as_csr(features).data).max(initial=0.0)
    for got, want in zip(model.weights, weights):
        assert np.abs(got - want).max() <= rtol * max(np.abs(want).max(), term)
    for got, want in zip(model.objective_history, histories):
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def sparse_counts_problem():
    """Histogram-like counts with repeated values over four classes; row 5
    is all zero, which takes the zero-diagonal branch."""
    gen = np.random.default_rng(12)
    counts = gen.integers(0, 4, size=(48, 300)).astype(np.float64)
    counts[gen.random(counts.shape) < 0.8] = 0.0
    counts[5] = 0.0
    labels = gen.integers(0, 4, size=48)
    return sp.csr_matrix(counts), labels, 0.5, 13


def dense_problem():
    gen = np.random.default_rng(14)
    x = gen.random((40, 12))
    y = (x[:, 0] + x[:, 1] + 0.4 * gen.standard_normal(40) > 1.0).astype(int)
    y[::7] = 2
    return x, y, 1.0, 15


def test_sparse_solver_bit_identical_to_reference_step():
    # on counts the blocked Gram is exact, so scipy's product is the Gram
    x, labels, cost_c, seed = sparse_counts_problem()
    assert_bit_identical_to_gram_reference(x, labels, cost_c, seed,
                                           (x @ x.T).toarray())


def test_dense_solver_bit_identical_to_reference_step():
    # non-integer features: the Gram's own bits come from the blocked pass,
    # which is pinned on counts only; this pins the step on top of it
    x, y, cost_c, seed = dense_problem()
    assert_bit_identical_to_gram_reference(
        x, y, cost_c, seed, classify.gram_matrix(as_csr(x)))


@pytest.mark.parametrize("problem", [sparse_counts_problem, dense_problem])
def test_solver_matches_primal_oracle(problem):
    assert_matches_primal_oracle(*problem())


@st.composite
def count_problems(draw):
    """A random sparse count matrix with two to four classes, each present."""
    n = draw(st.integers(4, 24))
    d = draw(st.integers(1, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = gen.integers(0, 6, size=(n, d)).astype(np.float64)
    counts[gen.random((n, d)) < draw(st.sampled_from([0.3, 0.7, 0.95]))] = 0.0
    labels = gen.permutation(np.arange(n) % draw(st.integers(2, 4)))
    cost_c = draw(st.sampled_from([0.05, 0.5, 1.0, 3.0]))
    return sp.csr_matrix(counts), labels, cost_c, draw(st.integers(0, 99))


@given(count_problems())
def test_gram_solver_matches_primal_oracle_on_random_counts(problem):
    assert_matches_primal_oracle(*problem, skip_near_ties=True)


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
    model = wpca_fit(x, np.zeros(2000), 5)
    proj = wpca_apply(model, x)
    var = proj.var(axis=0, ddof=1)
    assert (var > 0.9).all() and (var < 1.1).all()
    assert np.abs(proj.mean(axis=0)).max() < 1e-9


def test_line_data_unit_variance():
    t = np.linspace(-2, 2, 50)
    x = np.stack([t, 2 * t, -t], axis=1)
    model = wpca_fit(x, np.zeros(50), 1)
    proj = wpca_apply(model, x)
    assert abs(proj[:, 0].var(ddof=1) - 1.0) < 1e-6


def test_target_dim_zero_rejected():
    with pytest.raises(ValueError):
        wpca_fit(np.random.default_rng(9).random((10, 3)), np.zeros(10), 0)


def test_target_dim_beyond_rank_rejected():
    t = np.linspace(-1, 1, 20)
    x = np.stack([t, 2 * t], axis=1)  # rank 1
    with pytest.raises(ValueError, match="rank"):
        wpca_fit(x, np.zeros(20), 2)


@pytest.mark.parametrize("scores,target_dim", [
    (np.linspace(-1, 1, 6), 2),   # rank 1
    (np.ones(6), 1),              # identical rows: rank 0
])
def test_target_dim_beyond_rank_rejected_on_gram_route(scores, target_dim):
    x = np.outer(scores, np.arange(1.0, 11.0))  # d > n
    with pytest.raises(ValueError, match="rank"):
        wpca_fit(x, np.zeros(6), target_dim)


@pytest.mark.parametrize("rows,width", [
    (6, 17),    # d > n
    (20, 3),    # d <= n: an n x n Gram of rank at most d
])
def test_identical_rows_have_rank_zero(rows, width):
    # centering leaves rounding error of either sign, and the largest
    # eigenvalue is that error; the floor must come from the raw scale
    x = np.outer(np.full(rows, 0.1), np.arange(1.0, width + 1.0))
    with pytest.raises(ValueError, match="usable rank 0"):
        wpca_fit(x, np.zeros(rows), 1)


def test_gram_route_components_have_unit_variance():
    gen = np.random.default_rng(10)
    x = gen.standard_normal((12, 30))  # d > n
    wide = _wpca_fit(x, np.zeros(12), 4)
    proj = wpca_apply(wide, x)
    var = proj.var(axis=0, ddof=1)
    assert np.abs(var - 1.0).max() < 1e-6
    assert np.abs(proj.mean(axis=0)).max() < 1e-9


def test_wpca_accepts_sparse():
    gen = np.random.default_rng(11)
    dense = gen.random((25, 40))
    dense[dense < 0.7] = 0.0
    model = wpca_fit(sp.csr_matrix(dense), np.zeros(25), 3)
    proj = wpca_apply(model, dense)
    assert np.abs(proj.var(axis=0, ddof=1) - 1.0).max() < 1e-6


@pytest.mark.parametrize("width", [30, 50])
def test_wpca_feature_width_must_match_model(width):
    model = wpca_fit(np.random.default_rng(12).random((25, 40)),
                     np.zeros(25), 3)
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
    components lifted in column layout, signs fixed per column; the
    training vectors read off the eigenvectors."""
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
    signs = fix_row_signs(rows)
    scale = 1.0 / np.sqrt(eigvals[:target_dim])
    return mean, rows * scale[:, None], np.sqrt(n - 1) * dual * signs


@pytest.mark.parametrize("n,blocks,bins,target_dim,one_bin", [
    (30, 16, 16, 8, False),
    (25, 9, 256, 24, False),
    (20, 36, 64, 5, True),
])
def test_gram_route_matches_sparse_reference_on_counts(n, blocks, bins,
                                                      target_dim, one_bin):
    x = block_counts(n, blocks, bins, seed=100 + n, one_bin=one_bin)
    model = wpca_fit(x, np.arange(n), target_dim)
    mean, projection, vectors = wpca_fit_gram_reference(x, target_dim)
    assert np.array_equal(model.mean, mean)
    assert np.array_equal(model.projection, projection)
    assert np.array_equal(model.train_vectors, vectors)
    assert np.array_equal(model.train_labels, np.arange(n))
    assert model.projection.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n,target_dim", [(2, 1), (3, 2), (30, 8)])
@pytest.mark.parametrize("width", [1, 7, 50])
def test_blocked_gram_route_matches_sparse_reference(monkeypatch, jobs, n,
                                                    target_dim, width):
    # d = 144 columns in blocks of 1, 7 and 50 (7 and 50 leave a short
    # last block) and Gram rows in runs of as many: the split must not
    # change a bit at any jobs, whether all, some or none of the columns
    # enter as dense products. The first 80 columns are used by most rows,
    # the last 64 by about one in 16.
    monkeypatch.setattr(classify, "BUDGET", 8 * n * width)
    x = sp.hstack([block_counts(n, 5, 16, seed=200 + n),
                   block_counts(n, 4, 16, seed=300 + n, one_bin=True)]).tocsr()
    assert len(classify._column_blocks(n, x.shape[1])) == -(-144 // width)
    uses = np.diff(x.tocsc().indptr)
    for share in (1.0, 0.0, classify.DENSE_SHARE):
        monkeypatch.setattr(classify, "DENSE_SHARE", share)
        assert np.array_equal(classify.gram_matrix(x, jobs=jobs),
                              (x @ x.T).toarray())
    if n == 30:
        assert ((uses > 0) & (uses <= share * n)).any()
        assert (uses > share * n).any()
    model = wpca_fit(x, np.zeros(n), target_dim, jobs=jobs)
    mean, projection, vectors = wpca_fit_gram_reference(x, target_dim)
    assert np.array_equal(model.mean, mean)
    assert np.array_equal(model.projection, projection)
    assert np.array_equal(model.train_vectors, vectors)
    # the SVM's weights come through the same lift blocks
    assert_bit_identical_to_gram_reference(x, np.arange(n) % 3, 1.0, n,
                                           (x @ x.T).toarray(), jobs=jobs)


def test_gram_bits_do_not_depend_on_jobs():
    # square-rooted counts are not integers, so the order of the additions
    # shows in the bits; the strips and column blocks do not follow jobs
    x = sp.hstack([block_counts(40, 5, 16, seed=7),
                   block_counts(40, 4, 16, seed=8, one_bin=True)]).tocsr()
    x.data = np.sqrt(x.data)
    grams = [classify.gram_matrix(x, jobs=jobs) for jobs in (1, 2, 3)]
    assert all(g.tobytes() == grams[0].tobytes() for g in grams)
    assert np.allclose(grams[0], (x @ x.T).toarray(), rtol=1e-14, atol=0.0)


def test_no_pool_task_changes_its_state(monkeypatch):
    # at jobs=1 the tasks run on the very state dict the pool was given: a
    # task reads it and writes only into its shared arrays, so no key is
    # added, removed or rebound between a block's entry and its exit
    fork_pool = classify.fork_pool
    snapshots = []

    @contextlib.contextmanager
    def watching(jobs, state, *width):
        entered = dict(state)
        with fork_pool(jobs, state, *width) as run:
            yield run
        snapshots.append((entered, dict(state)))

    monkeypatch.setattr(classify, "fork_pool", watching)
    x = sp.hstack([block_counts(40, 5, 16, seed=10),
                   block_counts(40, 4, 16, seed=11, one_bin=True)]).tocsr()
    labels = np.arange(40) % 3
    classify.gram_matrix(x, jobs=1)
    svm_train(x, labels, cost_c=1.0, rng=Rng(10), jobs=1)
    wpca_fit(x, labels, 3, jobs=1)
    assert len(snapshots) == 3
    for entered, left in snapshots:
        assert entered.keys() == left.keys()
        assert all(left[key] is value for key, value in entered.items())


def test_gram_partials_never_reach_the_fitting_process():
    # the tasks write their strips into one shared array, so the fitting
    # process allocates no n x n partial and none is sent back to it; it
    # holds only a BUDGET run of column indices at a time
    n = 400
    x = block_counts(n, 9, 16, seed=9)
    tracemalloc.start()
    try:
        gram = classify.gram_matrix(x, jobs=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(gram, (x @ x.T).toarray())
    assert peak < 8 * n * n // 2


@pytest.mark.parametrize("sqrt", [False, True], ids=["counts", "sqrt-counts"])
@pytest.mark.parametrize("n,blocks,bins,target_dim,one_bin", [
    (30, 16, 16, 8, False),
    (25, 9, 256, 24, False),
    (20, 36, 64, 5, True),
])
def test_train_vectors_equal_the_projected_training_set(n, blocks, bins,
                                                        target_dim, one_bin,
                                                        sqrt):
    # read off the eigenvectors, not projected: equal up to the eigensolve's
    # rounding, per component relative to that component's scale
    x = block_counts(n, blocks, bins, seed=100 + n, one_bin=one_bin)
    if sqrt:
        x.data = np.sqrt(x.data)
    model = wpca_fit(x, np.zeros(n), target_dim)
    with forkpool.one_blas_thread():
        projected = wpca_apply(model, x)
    error = np.abs(model.train_vectors - projected).max(axis=0)
    assert (error <= 1e-12 * np.abs(projected).max(axis=0)).all()


@pytest.mark.parametrize("case", ["sorted", "unsorted", "empty"])
def test_column_block_equals_scipy_slice(case):
    # every block of 40 columns, with two empty rows, a run of empty
    # columns at the end, and rows with no entry in many blocks; unsorted
    # indices are sorted into a copy first, as wpca_fit does
    gen = np.random.default_rng(70)
    dense = gen.integers(1, 9, size=(9, 40)).astype(np.float64)
    dense[gen.random(dense.shape) < 0.7] = 0.0
    dense[[2, 5]] = 0.0
    dense[:, 30:] = 0.0
    x = sp.csr_matrix(dense * (case != "empty"))
    if case == "unsorted":
        for lo, hi in zip(x.indptr[:-1], x.indptr[1:]):
            x.indices[lo:hi] = x.indices[lo:hi][::-1].copy()
            x.data[lo:hi] = x.data[lo:hi][::-1].copy()
        x = sp.csr_matrix((x.data, x.indices, x.indptr), shape=x.shape)
    assert x.has_sorted_indices == (case != "unsorted")
    rows = x if x.has_sorted_indices else x.sorted_indices()
    for c0 in range(40):
        for c1 in range(c0 + 1, 41):
            got = classify._columns(rows, (c0, c1)).toarray()
            assert got.tobytes() == x[:, c0:c1].toarray().tobytes()


def test_wpca_fit_sorts_a_copy_of_unsorted_indices():
    x = block_counts(12, 9, 16, seed=71)
    indices, data = x.indices.copy(), x.data.copy()
    for lo, hi in zip(x.indptr[:-1], x.indptr[1:]):
        indices[lo:hi], data[lo:hi] = indices[lo:hi][::-1], data[lo:hi][::-1]
    unsorted = sp.csr_matrix((data, indices, x.indptr), shape=x.shape)
    assert not unsorted.has_sorted_indices
    got = wpca_fit(unsorted, np.zeros(12), 3)
    want = wpca_fit(x, np.zeros(12), 3)
    assert np.array_equal(got.mean, want.mean)
    assert np.array_equal(got.projection, want.projection)
    assert np.array_equal(got.train_vectors, want.train_vectors)
    assert np.array_equal(unsorted.indices, indices)   # the caller's rows stay


def test_svm_and_wpca_apply_give_the_same_bits_on_unsorted_indices():
    # square-rooted counts, so an order of additions would show in the bits
    x = block_counts(30, 9, 16, seed=72)
    x.data = np.sqrt(x.data)
    indices, data = x.indices.copy(), x.data.copy()
    for lo, hi in zip(x.indptr[:-1], x.indptr[1:]):
        indices[lo:hi], data[lo:hi] = indices[lo:hi][::-1], data[lo:hi][::-1]
    unsorted = sp.csr_matrix((data, indices, x.indptr), shape=x.shape)
    assert not unsorted.has_sorted_indices
    labels = np.arange(30) % 3
    svm = svm_train(x, labels, rng=Rng(4))
    assert svm_train(unsorted, labels, rng=Rng(4)).weights.tobytes() == \
        svm.weights.tobytes()
    assert np.array_equal(svm_predict_many(svm, unsorted),
                          svm_predict_many(svm, x))
    coerced = as_csr(unsorted, x.shape[1])
    assert coerced.data.tobytes() == x.data.tobytes()
    assert np.array_equal(coerced.indices, x.indices)
    wpca = wpca_fit(x, labels, 3)
    assert wpca_apply(wpca, unsorted).tobytes() == wpca_apply(wpca, x).tobytes()
    assert np.array_equal(unsorted.indices, indices)   # the caller's rows stay


@pytest.mark.parametrize("budget", [8, 8 * 1000, classify.BUDGET, 32 * 2**20])
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
        wpca_fit(x, np.zeros(60), 4, jobs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


def test_wpca_apply_sub_batches_reproduce_the_batch_rows():
    # evaluation projects a test set task by task, so every row of a
    # sub-batch, a lone row too, must get the bits the whole batch gives.
    # gemm does at the benchmark's shapes; gemv, which BLAS would take for
    # a one-row batch, does not. OpenBLAS sends products of at most about
    # 1e6 multiply-adds to a small-matrix kernel, whose bits can depend on
    # the batch: no column block may be that small, nor follow the rows
    gen = np.random.default_rng(9)
    for target_dim, blocks, bins, widths in [
            (24, 576, 256, {49152}),          # d = 147456, the benchmark's
            (64, 577, 255, {36783, 36784})]:  # d = 147135, not a multiple of 4
        x = block_counts(12, blocks, bins, seed=9).astype(np.uint8)
        d = x.shape[1]
        partition = classify._projection_blocks(d, target_dim)
        assert {c1 - c0 for c0, c1 in partition} == widths
        model = classify.WpcaCosineModel(
            np.asarray(x.mean(axis=0)).ravel(),
            gen.standard_normal((target_dim, d)),
            gen.standard_normal((2, target_dim)), np.arange(2))
        with forkpool.one_blas_thread():
            whole = wpca_apply(model, x)
            # float64 (wpca_sqrt) data give the counts' bits, in any batch
            for data in (x, x.astype(np.float64)):
                for start, stop in itertools.combinations(range(x.shape[0] + 1), 2):
                    assert np.array_equal(wpca_apply(model, data[start:stop]),
                                          whole[start:stop]), (d, start, stop)
            # the blocks move the sums in their last bits only
            single = (x.toarray() - model.mean) @ model.projection.T
        assert np.abs(whole - single).max() <= 1e-13 * np.abs(single).max()


@pytest.mark.parametrize("score", ["svm", "wpca"])
def test_scoring_never_holds_a_float64_copy_of_the_task(score):
    # a 32-image evaluation task's counts at d = 147456, and a batch of
    # three tasks: scipy would copy them all to float64 for the SVM's
    # decision values, and a dense float64 task would take 37.7 MB;
    # wpca_apply holds one column block of one task's rows dense in their
    # own dtype and one centered float64 block, whatever the batch
    gen = np.random.default_rng(82)
    d = 576 * 256
    if score == "svm":
        model = classify.LinearSvmModel(np.arange(4), gen.standard_normal((4, d)))
    else:
        model = classify.WpcaCosineModel(
            gen.random(d), gen.standard_normal((64, d)),
            gen.standard_normal((2, 64)), np.arange(2))
    for rows in (32, 96):
        counts, _ = typed_counts(rows, 576, 256, seed=82)
        if score == "svm":
            scores, bound = svm_predict_many, 8 * counts.nnz
        else:
            scores, bound = wpca_apply, 2 * classify.BUDGET
        tracemalloc.start()
        try:
            scores(model, counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, rows


def test_row_run_is_a_view_of_the_batch():
    # scipy's constructor would copy a run under half of the batch's entries
    x = block_counts(10, 4, 16, seed=84)
    run = classify._rows(x, 2, 4)
    assert np.shares_memory(run.data, x.data)
    assert np.shares_memory(run.indices, x.indices)
    assert np.array_equal(run.toarray(), x[2:4].toarray())


def test_wpca_apply_projects_a_batch_one_task_of_rows_at_a_time():
    # a batch longer than an evaluation task gives each run of TASK_IMAGES
    # rows, and its lone last row, the bits it gets as a batch of its own
    task = classify.TASK_IMAGES
    x = block_counts(2 * task + 1, 64, 16, seed=83).astype(np.uint8)
    gen = np.random.default_rng(83)
    model = classify.WpcaCosineModel(
        np.asarray(x.mean(axis=0)).ravel(), gen.standard_normal((8, x.shape[1])),
        gen.standard_normal((2, 8)), np.arange(2))
    parts = [wpca_apply(model, x[r0:r1])
             for r0, r1 in [(0, task), (task, 2 * task), (2 * task, 2 * task + 1)]]
    assert wpca_apply(model, x).tobytes() == np.concatenate(parts).tobytes()


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


@pytest.mark.parametrize("query", [[0.0, 0.0], [-0.0, -0.0]],
                         ids=["zeros", "negative-zeros"])
def test_zero_query_takes_the_first_nonzero_vectors_label(query):
    # at similarity 0 to every nonzero training vector, so the lowest index
    # of those wins; a zero training vector still never does
    train = np.array([[0.0, 0.0], [0.0, -2.0], [1.0, 0.0]])
    assert cosine_nn(train, np.array([4, 6, 8]), np.array(query)) == 6


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


# --- count-typed features ----------------------------------------------

def typed_counts(n, blocks, bins, seed, dtype=np.uint8, scale=1):
    """``block_counts`` times ``scale`` as counts of ``dtype``, and the same
    values as a float64 CSR."""
    x = block_counts(n, blocks, bins, seed)
    x.data *= scale
    return x.astype(dtype), x


def test_count_arithmetic_traps_the_fits_avoid():
    # why the fits name a float dtype for every operation on counts
    v = np.array([200, 100], dtype=np.uint8)
    assert np.einsum("i,i->", v, v) == 80                  # 50000 wraps
    assert np.einsum("i,i->", v, v, dtype=np.float64) == 50000.0
    assert np.sqrt(v).dtype == np.float16
    x = sp.csr_matrix(v[None, :])
    assert (x @ x.T).toarray()[0, 0] == 80                  # wraps too
    # a float64 operand makes scipy copy all of the data to float64
    counts, _ = typed_counts(40, 64, 16, seed=71)
    tracemalloc.start()
    try:
        counts @ np.ones(counts.shape[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak >= 8 * counts.nnz


@pytest.mark.parametrize("rows,width", [(6, 17), (20, 3)])
def test_identical_count_rows_have_rank_zero(rows, width):
    # 16**2 = 256: a uint8 sum of the squares wraps to 0, which would leave
    # no floor under the centering's rounding error
    x = sp.csr_matrix(np.full((rows, width), 16, dtype=np.uint8))
    with pytest.raises(ValueError, match="usable rank 0"):
        wpca_fit(x, np.zeros(rows), 1)


@pytest.mark.parametrize("budget", [classify.BUDGET, 8 * 30 * 7])
@pytest.mark.parametrize("dtype,scale", [(np.uint8, 1), (np.uint16, 16)])
def test_count_features_give_the_float64_bits(monkeypatch, budget, dtype,
                                              scale):
    # every classifier entry point, on counts (16 * 49 = 784 is a 28x28
    # block's largest count) and on the float64 CSR of the same values; the
    # small BUDGET lifts in column blocks of 7 and takes x @ mean in runs
    # of rows
    monkeypatch.setattr(classify, "BUDGET", budget)
    counts, floats = typed_counts(30, 16, 16, seed=70, dtype=dtype,
                                    scale=scale)
    labels = np.arange(30) % 3
    assert as_csr(counts) is counts
    assert classify._product_dtype(counts) is np.float32
    for jobs in (1, 2):
        got, want = (svm_train(x, labels, cost_c=1.0, rng=Rng(70), jobs=jobs)
                     for x in (counts, floats))
        assert got.weights.tobytes() == want.weights.tobytes()
        assert all(np.array_equal(a, b) for a, b in
                   zip(got.objective_history, want.objective_history))
        assert np.array_equal(svm_predict_many(want, counts),
                              svm_predict_many(want, floats))
    for sqrt in (False, True):
        cfg = Config(wpca_sqrt=sqrt)
        got_x, want_x = (experiment._wpca_input(x, cfg) for x in (counts, floats))
        if sqrt:
            assert got_x.data.dtype == np.float64
            assert got_x.data.tobytes() == want_x.data.tobytes()
            assert classify._product_dtype(got_x) is np.float64
        else:
            assert got_x is counts
        for jobs in (1, 2):
            got, want = (wpca_fit(x, labels, 8, jobs=jobs) for x in (got_x, want_x))
            for name in ("mean", "projection", "train_vectors"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        with forkpool.one_blas_thread():
            for rows in (slice(None), slice(0, 1)):
                assert (wpca_apply(want, got_x[rows]).tobytes()
                        == wpca_apply(want, want_x[rows]).tobytes())


@pytest.mark.parametrize("row,dtype,exact_in_float32", [
    ([4095, 2], np.float32, True),    # max 4095, row sum 4097: 2**24 - 1
    ([4096], np.float64, True),       # 4096 * 4096 = 2**24
    ([4097, 2], np.float64, False),   # 4097**2 + 4 is odd and above 2**24
])
def test_gram_switches_to_float64_at_the_float32_bound(row, dtype,
                                                      exact_in_float32):
    # 40 rows of 5 block histograms (max 49, row sum 245), row 0 replaced;
    # rows 1 and 39 are empty: reduceat would give an empty row the next
    # row's first entry, and raise on a start equal to nnz
    dense = block_counts(40, 5, 16, seed=72).toarray()
    dense[[0, 1, -1]] = 0
    dense[0, 3:3 + len(row)] = row
    counts = sp.csr_matrix(dense.astype(np.uint16))
    x = sp.csr_matrix(dense)
    want = (x @ x.T).toarray()
    assert classify._product_dtype(counts) is dtype
    assert (want.astype(np.float32) == want).all() == exact_in_float32
    for jobs in (1, 2, 3):
        assert classify.gram_matrix(counts, jobs=jobs).tobytes() == want.tobytes()


def test_counts_too_large_for_float32_take_float64():
    # a count of 2**24 or more takes float64 before any row is summed
    x = sp.csr_matrix(np.array([[2**24, 1], [0, 3]], dtype=np.uint32))
    assert classify._product_dtype(x) is np.float64


def test_gram_of_counts_with_no_entries_is_zero():
    x = sp.csr_matrix((3, 10), dtype=np.uint8)
    assert classify._product_dtype(x) is np.float32
    assert not classify.gram_matrix(x).any()


@pytest.mark.parametrize("fit", ["svm", "wpca"])
def test_fits_never_hold_a_float64_copy_of_the_counts(fit):
    # 150 rows of about 19.6k nonzeros each, as a glyph's block histograms
    # hold: scipy would copy all of the counts to float64 for the weight
    # lift X^T B, or for x @ mean in WPCA's centering, if taken whole
    counts, _ = typed_counts(150, 576, 64, seed=81)
    labels = np.arange(150) % 4
    tracemalloc.start()
    try:
        if fit == "svm":
            svm_train(counts, labels, cost_c=1.0, rng=Rng(81), jobs=1)
        else:
            wpca_fit(counts, labels, 4, jobs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * counts.nnz
