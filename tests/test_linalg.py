import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from translayer.forkpool import one_blas_thread
from translayer.linalg import fix_row_signs, jacobi_eigh


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


def fix_row_signs_vectorized(rows):
    """The whole-array sign rule: one argmax over ``np.abs(rows)``, then a
    masked flip, each a temporary the size of ``rows``."""
    lead = np.argmax(np.abs(rows), axis=1)
    rows[rows[np.arange(rows.shape[0]), lead] < 0.0] *= -1.0


def test_fix_signs_rows_match_vectorized_rule_without_a_full_temporary():
    # the (k, d) shape of a WPCA projection; integer levels make ties of
    # equal magnitude common, with either sign first
    gen = np.random.default_rng(9)
    rows = gen.integers(-3, 4, size=(8, 100000)).astype(np.float64)
    rows[0, :2] = -3.0, 3.0
    rows[1, :2] = 3.0, -3.0
    rows[2] = 0.0
    want = rows.copy()
    fix_row_signs_vectorized(want)
    flipped = (want != rows).any(axis=1)
    assert flipped[0] and not flipped[1]   # ties: the first entry decides
    tracemalloc.start()
    try:
        fix_row_signs(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows, want)
    assert peak < rows.nbytes // 4


def test_fix_row_signs_returns_the_factors_it_applied():
    gen = np.random.default_rng(10)
    rows = gen.integers(-3, 4, size=(8, 50)).astype(np.float64)
    rows[2] = 0.0
    before = rows.copy()
    signs = fix_row_signs(rows)
    assert set(signs) == {-1.0, 1.0} and signs[2] == 1.0
    assert np.array_equal(signs[:, None] * before, rows)


def eigh_with_copies(matrix):
    """The solve with a copy of the input and a reversed copy of the
    eigenvectors that is sign-fixed and copied back to columns."""
    a = np.array(matrix, dtype=np.float64)
    with one_blas_thread():
        eigvals, eigvecs = np.linalg.eigh(0.5 * (a + a.T))
    rows = eigvecs.T[::-1].copy()
    fix_row_signs(rows)
    return eigvals[::-1].copy(), np.ascontiguousarray(rows.T)


def test_solve_holds_two_matrices_and_keeps_its_bits():
    a = random_symmetric(800, 12)
    a[3, 5] += 1e-12    # symmetric within the tolerance, not exactly
    tracemalloc.start()
    try:
        vals, vecs = jacobi_eigh(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * a.nbytes
    want_vals, want_vecs = eigh_with_copies(a)
    assert vals.tobytes() == want_vals.tobytes()
    assert vecs.tobytes() == want_vecs.tobytes()
    assert vecs.flags.c_contiguous


def test_rejects_non_finite_without_a_warning():
    # a solve that checked symmetry before finiteness would report the inf
    # as an asymmetry
    a = np.eye(1000)
    a[900, 7] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigh(a)


def test_one_by_one():
    vals, vecs = jacobi_eigh(np.array([[4.0]]))
    assert vals[0] == 4.0 and vecs[0, 0] == 1.0


def test_rejects_non_square():
    with pytest.raises(ValueError, match="matrix must be square"):
        jacobi_eigh(np.zeros((2, 3)))


def test_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_large_scale_matrix_converges():
    a = random_symmetric(10, 5) * 1e9
    vals, vecs = jacobi_eigh(a)
    assert np.abs((vecs * vals) @ vecs.T - a).max() < 1e-4  # 1e-13 relative


def offdiag_norm(a):
    return float(np.linalg.norm(a - np.diag(np.diag(a))))


def reference_cyclic_eigh(matrix):
    """An oracle that shares no code with LAPACK: cyclic-order Jacobi, one
    rotation at a time over p < q in row order, to an off-diagonal norm of
    1e-12 (relative, for norms above 1), sorted descending."""
    a = 0.5 * (matrix + matrix.T)
    n = a.shape[0]
    v = np.eye(n)
    thresh = 1e-12 * max(1.0, float(np.linalg.norm(a)))
    for _ in range(100):
        if offdiag_norm(a) <= thresh:
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


class EigenConvergenceError(RuntimeError):
    """Raised by :func:`reference_round_robin_eigh` at its sweep cap."""


def round_robin_schedule(n):
    """One sweep of disjoint ``(p, q)`` index pairs, ``p < q``, per step.

    The circle method: index 0 stays put while the others rotate one seat
    per step, so every pair meets exactly once in a sweep. An odd ``n`` is
    padded with a dummy index ``n`` whose pairs are dropped.
    """
    m = n + n % 2
    seats = list(range(m))
    steps = []
    for _ in range(m - 1):
        pairs = [sorted((seats[i], seats[m - 1 - i])) for i in range(m // 2)]
        pairs = [pq for pq in pairs if pq[1] < n]
        steps.append((np.array([p for p, _ in pairs], dtype=np.intp),
                      np.array([q for _, q in pairs], dtype=np.intp)))
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return steps


def rotation(a, p, q):
    """Golub-Van Loan symmetric Schur rotations for the disjoint (p, q)
    planes, as ``(c, s)`` column vectors.

    A zero ``a[p, q]``, or a ``tau`` whose square overflows, gives the
    identity rotation (c = 1, s = 0).
    """
    apq = a[p, q]
    nonzero = apq != 0.0
    with np.errstate(over="ignore"):
        tau = (a[q, q] - a[p, p]) / np.where(nonzero, 2.0 * apq, 1.0)
        t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    t[~nonzero] = 0.0
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c[:, None], (t * c)[:, None]


def rotate_rows(m, p, q, c, s):
    rp, rq = m[p], m[q]
    m[p] = c * rp - s * rq
    m[q] = s * rp + c * rq


def reference_round_robin_eigh(matrix, max_sweeps=100):
    """A second oracle that shares no code with LAPACK: Jacobi sweeps in
    round-robin order (Brent & Luk 1985), each step's disjoint plane
    rotations applied together, to the cyclic oracle's tolerance."""
    a = 0.5 * (matrix + matrix.T)
    n = a.shape[0]
    vt = np.eye(n)  # eigenvectors as rows, so every rotation is a row gather
    thresh = 1e-12 * max(1.0, float(np.linalg.norm(a)))
    converged = offdiag_norm(a) <= thresh
    schedule = round_robin_schedule(n)
    for _ in range(max_sweeps):
        if converged:
            break
        for p, q in schedule:
            c, s = rotation(a, p, q)
            rotate_rows(a, p, q, c, s)
            # the column rotation, done on rows of the transpose
            a = np.ascontiguousarray(a.T)
            rotate_rows(a, p, q, c, s)
            a[p, q] = a[q, p] = 0.0
            rotate_rows(vt, p, q, c, s)
        converged = offdiag_norm(a) <= thresh
    if not converged:
        raise EigenConvergenceError(
            f"jacobi sweeps exhausted ({max_sweeps}) before convergence")
    eigvals = np.diag(a).copy()
    order = np.argsort(-eigvals, kind="stable")
    return eigvals[order], fix_column_signs(vt[order].T)


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
    assert np.array_equal(vals, np.sort(diag)[::-1])
    # each eigenvector is exactly the unit vector of its diagonal entry;
    # tied entries may come in either order
    lead = np.argmax(vecs, axis=0)
    assert np.array_equal(vecs, np.eye(diag.size)[:, lead])
    assert np.array_equal(np.sort(lead), np.arange(diag.size))
    assert np.array_equal(diag[lead], vals)


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
    c, s = rotation(a, np.array([0, 2]), np.array([1, 3]))
    assert np.array_equal(c, [[1.0], [1.0]]) and np.array_equal(np.abs(s), [[0.0], [0.0]])
    for solve in (jacobi_eigh, reference_round_robin_eigh):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, vecs = solve(a)
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


@pytest.mark.parametrize("n,seed", [(2, 10), (7, 11), (16, 12), (33, 13), (49, 14)])
def test_agrees_with_round_robin_reference(n, seed):
    a = separated_spectrum(n, seed)
    vals, vecs = jacobi_eigh(a)
    ref_vals, ref_vecs = reference_round_robin_eigh(a)
    assert np.abs(vals - ref_vals).max() < 1e-12 * np.abs(ref_vals).max()
    assert np.abs(vecs - ref_vecs).max() < 1e-10


def test_sweep_cap_raises_convergence_error():
    with pytest.raises(EigenConvergenceError, match=r"exhausted \(1\)"):
        reference_round_robin_eigh(random_symmetric(10, 15), max_sweeps=1)
