import itertools
import math
import warnings

import numpy as np
import pytest

from translayer import linalg
from translayer.linalg import (EigenConvergenceError, fix_row_signs,
                               jacobi_eigh, round_robin_schedule)


def fix_column_signs(vectors):
    """``fix_row_signs`` applied to the columns, on a transposed copy."""
    rows = vectors.T.copy()
    fix_row_signs(rows)
    return rows.T


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
    assert vecs.flags["C_CONTIGUOUS"]


def test_fix_signs_tie_uses_first_entry():
    v = np.array([[-0.5], [0.5]])
    out = fix_column_signs(v)
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
    assert np.array_equal(fix_column_signs(v), want)


def test_fix_signs_tall_matches_column_loop():
    # the (d, k) shape of a WPCA lift, d >> k
    gen = np.random.default_rng(8)
    v = gen.standard_normal((5000, 6))
    v[17, 1] = -9.0                    # a lone negative lead
    v[40, 2], v[41, 2] = 9.0, -9.0     # ties: the first entry decides
    v[40, 3], v[41, 3] = -9.0, 9.0
    want = v.copy()
    for j in range(want.shape[1]):
        col = want[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            want[:, j] = -col
    got = fix_column_signs(v)
    assert np.array_equal(got, want)
    assert np.array_equal(got[:, 1], -v[:, 1])
    assert np.array_equal(got[:, 3], -v[:, 3])


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


def reference_cyclic_eigh(matrix):
    """The cyclic-order Jacobi solver the round-robin sweep replaced: one
    rotation at a time over p < q in row order, same tolerance and sort."""
    a = 0.5 * (matrix + matrix.T)
    n = a.shape[0]
    v = np.eye(n)
    thresh = linalg.OFFDIAG_TOL * max(1.0, float(np.linalg.norm(a)))
    for _ in range(linalg.MAX_SWEEPS):
        if linalg._offdiag_norm(a) <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap, aq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                a[p, q] = a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    eigvals = np.diag(a).copy()
    order = np.argsort(-eigvals, kind="stable")
    return eigvals[order], fix_column_signs(v[:, order])


def separated_spectrum(n, seed):
    """Q diag(lam) Q^T with eigenvalues at least 1 apart."""
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.normal(size=(n, n)))
    lam = np.arange(n, 0, -1, dtype=np.float64) + gen.random(n) * 0.5
    return (q * lam) @ q.T


@pytest.mark.parametrize("n", range(2, 51))
def test_round_robin_schedule_pairs_each_plane_once(n):
    steps = round_robin_schedule(n)
    assert len(steps) == n - 1 + n % 2
    seen = []
    for p, q in steps:
        touched = np.concatenate([p, q])
        assert np.unique(touched).size == touched.size  # disjoint planes
        assert (p < q).all() and (q < n).all()
        seen.extend(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == list(itertools.combinations(range(n), 2))


def test_diagonal_input_returns_its_diagonal_exactly():
    diag = np.array([0.5, -2.0, 3.0, 3.0, 7.25, 0.0, 1e-3])
    vals, vecs = jacobi_eigh(np.diag(diag))
    order = np.argsort(-diag, kind="stable")
    assert np.array_equal(vals, diag[order])
    assert np.array_equal(vecs, np.eye(diag.size)[:, order])


def test_exact_zero_offdiagonal_entries_converge():
    a = random_symmetric(12, 7)
    mask = np.random.default_rng(8).random((12, 12)) < 0.5
    a[mask | mask.T] = 0.0
    a += np.diag(np.arange(12.0))
    vals, vecs = jacobi_eigh(a)
    assert np.abs(vecs.T @ vecs - np.eye(12)).max() < 1e-12
    assert np.abs((vecs * vals) @ vecs.T - a).max() < 1e-12


def test_overflowing_tau_gives_identity_rotation():
    # tau^2 overflows (tiny apq, unit gap), and tau itself overflows
    # (subnormal apq, 1e10 gap); plus one ordinary plane so a sweep runs
    a = np.diag([1.0, 2.0, 0.0, 1e10, 3.0, 4.0])
    a[0, 1] = a[1, 0] = 1e-160
    a[2, 3] = a[3, 2] = 1e-310
    a[4, 5] = a[5, 4] = 0.5
    c, s = linalg._rotation(a, np.array([0, 2]), np.array([1, 3]))
    assert np.array_equal(c, [[1.0], [1.0]]) and np.array_equal(np.abs(s), [[0.0], [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = jacobi_eigh(a)
    assert np.isfinite(vals).all() and np.isfinite(vecs).all()
    assert np.abs(vecs.T @ vecs - np.eye(6)).max() < 1e-12
    assert np.abs(np.sort(vals) - np.sort(np.linalg.eigvalsh(a))).max() < 1e-5


def test_repeated_eigenvalues_give_orthonormal_vectors():
    u = np.random.default_rng(9).normal(size=10)
    a = np.eye(10) + np.outer(u, u)
    vals, vecs = jacobi_eigh(a)
    assert np.abs(vals[1:] - 1.0).max() < 1e-12
    assert abs(vals[0] - (1.0 + u @ u)) < 1e-12 * (1.0 + u @ u)
    assert np.abs(vecs.T @ vecs - np.eye(10)).max() < 1e-12
    assert np.abs((vecs * vals) @ vecs.T - a).max() < 1e-12


@pytest.mark.parametrize("n,seed", [(2, 10), (7, 11), (16, 12), (33, 13), (49, 14)])
def test_agrees_with_cyclic_reference(n, seed):
    a = separated_spectrum(n, seed)
    vals, vecs = jacobi_eigh(a)
    ref_vals, ref_vecs = reference_cyclic_eigh(a)
    assert np.abs(vals - ref_vals).max() < 1e-12 * np.abs(ref_vals).max()
    assert np.abs(vecs - ref_vecs).max() < 1e-10


def test_sweep_cap_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    with pytest.raises(EigenConvergenceError, match=r"exhausted \(1\)"):
        jacobi_eigh(random_symmetric(10, 15))
