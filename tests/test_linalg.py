import numpy as np
import pytest

from translayer.linalg import fix_signs, jacobi_eigh


def random_symmetric(n, seed):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(n, n))
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (13, 2), (49, 3)])
def test_matches_lapack_oracle(n, seed):
    a = random_symmetric(n, seed)
    vals, vecs = jacobi_eigh(a)
    ref = np.linalg.eigvalsh(a)[::-1]
    assert np.abs(vals - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())
    assert np.abs(vecs.T @ vecs - np.eye(n)).max() < 1e-12
    assert np.abs((vecs * vals) @ vecs.T - a).max() < 1e-10


def test_descending_order():
    vals, _ = jacobi_eigh(random_symmetric(20, 4))
    assert (np.diff(vals) <= 1e-12).all()


def test_sign_convention():
    vals, vecs = jacobi_eigh(np.diag([3.0, 2.0, 1.0]))
    for j in range(3):
        lead = np.argmax(np.abs(vecs[:, j]))
        assert vecs[lead, j] > 0


def test_fix_signs_tie_uses_first_entry():
    v = np.array([[-0.5], [0.5]])
    out = fix_signs(v)
    assert out[0, 0] == 0.5 and out[1, 0] == -0.5


def test_fix_signs_matches_column_loop():
    gen = np.random.default_rng(6)
    v = gen.standard_normal((9, 7))
    v[2, :3] = 4.0
    v[5, :3] = -4.0   # ties between a positive and a negative lead
    v[5, 3] = -4.0    # a lone negative lead
    want = v.copy()
    for j in range(want.shape[1]):
        col = want[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            want[:, j] = -col
    got = fix_signs(v)
    assert np.array_equal(got, want)
    assert got.flags["C_CONTIGUOUS"]


def test_one_by_one():
    vals, vecs = jacobi_eigh(np.array([[4.0]]))
    assert vals[0] == 4.0 and vecs[0, 0] == 1.0


def test_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_large_scale_matrix_converges():
    a = random_symmetric(10, 5) * 1e9
    vals, vecs = jacobi_eigh(a)
    assert np.abs((vecs * vals) @ vecs.T - a).max() < 1e-4  # 1e-13 relative
