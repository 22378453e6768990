import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from translayer import Config, validate_config
from translayer.preprocess import lcn_rows, whiten_apply, whiten_fit


# --- contrast normalization ---------------------------------------------

def test_lcn_constant_patch_is_zero():
    out = lcn_rows(np.full((1, 9), 5.0), 10.0)
    assert np.array_equal(out, np.zeros((1, 9)))


def test_lcn_hand_computed_example():
    # mean 1, population std 1, so (x - 1) / (1 + 10)
    out = lcn_rows(np.array([[0.0, 2.0, 2.0, 0.0]]), 10.0)[0]
    expected = np.array([-1, 1, 1, -1]) / 11.0
    assert np.abs(out - expected).max() < 1e-15


def test_lcn_affine_invariance_in_small_c_limit():
    # residual is ~|x| * c / (a * std), so keep std well above 1
    gen = np.random.default_rng(0)
    p = gen.normal(scale=5.0, size=(1, 25))
    tiny = 1e-9
    base = lcn_rows(p, tiny)
    for a in (1.0, 3.0):
        for b in (0.0, 7.0):
            assert np.abs(lcn_rows(a * p + b, tiny) - base).max() < 1e-9


def test_lcn_requires_positive_c():
    assert "lcn_c must be > 0" in validate_config(Config(lcn_c=0.0))


def test_lcn_matrix_constant_rows():
    out = lcn_rows(np.ones((2, 9)) * 3.0, 10.0)
    assert np.array_equal(out, np.zeros((2, 9)))


def test_lcn_matrix_single_column_matches_patch():
    # each patch row of a matrix gets the bits of that patch alone
    gen = np.random.default_rng(1)
    patches = gen.normal(size=(5, 49))
    out = lcn_rows(patches, 10.0)
    for k in range(5):
        assert np.array_equal(out[k], lcn_rows(patches[k:k + 1], 10.0)[0])


def test_lcn_matrix_row_means_vanish():
    gen = np.random.default_rng(2)
    out = lcn_rows(gen.normal(size=(1000, 49)), 10.0)
    assert np.abs(out.mean(axis=1)).max() < 1e-12


@given(st.lists(st.floats(-100, 100), min_size=4, max_size=4))
def test_lcn_output_mean_zero_property(values):
    out = lcn_rows(np.asarray([values]), 10.0)
    assert abs(out.mean()) < 1e-12


# --- whitening ------------------------------------------------------------

def test_whiten_fit_identity_covariance_closed_form():
    a = np.sqrt(1.5)  # scaled so the 1/(m-1) sample covariance is exactly I
    rows = np.array([[a, 0.0], [-a, 0.0], [0.0, a], [0.0, -a]])
    tr = whiten_fit(rows, 0.1)
    expected = np.eye(2) / np.sqrt(1.1)
    assert np.abs(tr.matrix - expected).max() < 1e-12


def test_whiten_fit_antipodal_columns_axis_aligned():
    rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
    tr = whiten_fit(rows, 0.1)
    # brute-force 2x2 oracle: covariance diag(2, 0), so the transform is
    # diagonal with entries (2 + eps)^-1/2 and eps^-1/2
    expected = np.diag([1 / np.sqrt(2.1), 1 / np.sqrt(0.1)])
    assert np.abs(tr.matrix - expected).max() < 1e-12


def test_whiten_fit_eps_zero_whitens_exactly():
    gen = np.random.default_rng(3)
    data = gen.normal(size=(3000, 5))
    tr = whiten_fit(data, 0.0)
    out = whiten_apply(tr, data)
    assert np.abs(np.cov(out, rowvar=False) - np.eye(5)).max() < 1e-8


def test_whiten_fit_symmetric_positive_definite():
    gen = np.random.default_rng(4)
    tr = whiten_fit(gen.normal(size=(500, 9)), 0.1)
    assert np.abs(tr.matrix - tr.matrix.T).max() < 1e-10
    assert (np.linalg.eigvalsh(tr.matrix) > 0).all()


def test_whiten_fit_rejects_rank_deficient_eps_zero():
    rows = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="singular"):
        whiten_fit(rows, 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_whiten_fit_rejects_a_linear_combination_eps_zero(seed):
    # the third column's variance is zero up to rounding of either sign
    a = np.random.default_rng(seed).normal(size=(50, 2))
    with pytest.raises(ValueError, match="singular"):
        whiten_fit(np.column_stack([a, 0.3 * a[:, 0] + 0.7 * a[:, 1]]), 0.0)


@pytest.mark.parametrize("rows, epsilon, message", [
    (np.eye(3), -1.0, "epsilon must be >= 0"),
    (np.ones((1, 3)), 0.1, "whitening needs at least two patches"),
], ids=["negative-epsilon", "one-patch"])
def test_whiten_fit_misuse_rejected(rows, epsilon, message):
    with pytest.raises(ValueError, match=message):
        whiten_fit(rows, epsilon)


def test_whiten_apply_identity_transform():
    from translayer import WhiteningTransform
    tr = WhiteningTransform(matrix=np.eye(3))
    data = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(whiten_apply(tr, data), data)


def test_whiten_apply_dimension_mismatch():
    tr = whiten_fit(np.random.default_rng(5).normal(size=(50, 4)), 0.1)
    with pytest.raises(ValueError):
        whiten_apply(tr, np.zeros((3, 5)))


def test_whiten_large_sample_eigenvalues_bounded():
    gen = np.random.default_rng(6)
    patches = gen.normal(size=(100000, 49))
    tr = whiten_fit(patches, 0.1)
    out = whiten_apply(tr, patches)
    eigs = np.linalg.eigvalsh(np.cov(out, rowvar=False))
    assert eigs.min() > 0.0
    assert eigs.max() <= 1.0 + 1e-10  # lambda / (lambda + 0.1) <= 1
