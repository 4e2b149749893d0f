import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplora.errors import (DegenerateInputError, DensePolicyError,
                           NonFiniteError, ShapeError, SingularMetricError)
from oplora.matcore import (matmul, sample_columns, solve_spd, svd_dense,
                            thin_qr)

from conftest import rng


def naive_matmul(a, b):
    """Entrywise triple-loop oracle."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def jacobi_eigvals(a, sweeps=100, tol=1e-14):
    """Cyclic Jacobi eigenvalues of a small symmetric matrix.

    Independent of any LAPACK code path; used as the spectral oracle.
    """
    a = a.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(max(np.sum(a * a) - np.sum(np.diag(a) ** 2), 0.0))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


class TestMatmul:
    def test_identity(self):
        a = rng(1).standard_normal((3, 5))
        assert np.array_equal(matmul(np.eye(3), a), a)

    def test_annihilator(self):
        a = rng(2).standard_normal((4, 3))
        assert np.array_equal(matmul(a, np.zeros((3, 2))), np.zeros((4, 2)))

    def test_matches_triple_loop_oracle(self):
        g = rng(3)
        a = g.standard_normal((4, 3))
        b = g.standard_normal((3, 2))
        assert np.allclose(matmul(a, b), naive_matmul(a, b), atol=1e-13)

    def test_transpose_flags(self):
        g = rng(4)
        a = g.standard_normal((3, 4))
        b = g.standard_normal((3, 5))
        assert np.allclose(matmul(a, b, transpose_a=True), a.T @ b)
        c = g.standard_normal((5, 4))
        assert np.allclose(matmul(a, c, transpose_b=True), a @ c.T)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan]])
        with pytest.raises(ShapeError):
            matmul(bad, np.ones((2, 1)))

    def test_non_finite_has_its_own_type(self):
        with pytest.raises(NonFiniteError, match="a contains non-finite"):
            matmul(np.array([[np.inf]]), np.ones((1, 1)))
        assert issubclass(NonFiniteError, ShapeError)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_associativity(self, seed):
        g = rng(seed)
        a = g.standard_normal((4, 3))
        b = g.standard_normal((3, 5))
        c = g.standard_normal((5, 2))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.allclose(left, right, rtol=1e-9, atol=1e-12)

    def test_bit_reproducible(self):
        g = rng(5)
        a = g.standard_normal((37, 29))
        b = g.standard_normal((29, 41))
        assert np.array_equal(matmul(a, b), matmul(a, b))


class TestSolveSpd:
    def test_identity_system(self):
        b = rng(6).standard_normal((2, 4))
        assert np.allclose(solve_spd(np.eye(2), b), b, atol=1e-14)

    def test_diagonal_system(self):
        a = np.diag([2.0, 4.0])
        b = np.array([[2.0], [4.0]])
        assert np.allclose(solve_spd(a, b), np.array([[1.0], [1.0]]))

    def test_residual_bound(self):
        g = rng(7)
        m = g.standard_normal((8, 8))
        a = m.T @ m + np.eye(8)
        b = g.standard_normal((8, 3))
        x = solve_spd(a, b)
        res = np.linalg.norm(matmul(a, x) - b)
        assert res <= 1e-8 * max(1.0, np.linalg.norm(b))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_recovers_solution(self, seed):
        g = rng(seed)
        m = g.standard_normal((6, 6))
        a = m.T @ m + 0.5 * np.eye(6)
        x_true = g.standard_normal((6, 2))
        x = solve_spd(a, a @ x_true)
        assert np.linalg.norm(x - x_true) <= 1e-8 * np.linalg.norm(x_true)

    def test_non_pd_reports_pivot(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(SingularMetricError) as err:
            solve_spd(a, np.ones((3, 1)))
        assert err.value.pivot_index == 1

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ShapeError):
            solve_spd(a, np.ones((2, 1)))

    def test_dimension_cap(self):
        n = 600
        with pytest.raises(DensePolicyError):
            solve_spd(np.eye(n), np.ones((n, 1)))


class TestThinQr:
    def test_orthonormal_fixed_point(self):
        q0, _ = np.linalg.qr(rng(8).standard_normal((7, 3)))
        q, r = thin_qr(q0)
        assert np.allclose(q @ r, q0, atol=1e-12)
        assert np.allclose(np.abs(np.diag(r)), np.ones(3), atol=1e-12)

    def test_scaled_identity_columns(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        q, r = thin_qr(a)
        assert np.allclose(q, np.array([[1, 0], [0, 1], [0, 0]]), atol=1e-14)
        assert np.allclose(r, np.diag([2.0, 3.0]), atol=1e-14)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_postconditions(self, seed):
        a = rng(seed).standard_normal((20, 5))
        q, r = thin_qr(a)
        assert np.allclose(q.T @ q, np.eye(5), atol=1e-10)
        assert np.linalg.norm(q @ r - a) <= 1e-10 * np.linalg.norm(a)
        assert np.all(np.diag(r) >= 0)
        assert np.allclose(r, np.triu(r), atol=1e-14)

    def test_rank_deficient_rejected(self):
        col = rng(9).standard_normal((6, 1))
        a = np.hstack([col, 2.0 * col])
        with pytest.raises(DegenerateInputError):
            thin_qr(a)

    def test_wide_rejected(self):
        with pytest.raises(ShapeError):
            thin_qr(np.ones((2, 3)))


class TestSvdDense:
    def test_diagonal(self):
        u, s, v = svd_dense(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0])
        assert np.allclose(u, np.eye(2), atol=1e-12)
        assert np.allclose(v, np.eye(2), atol=1e-12)

    def test_rank_one(self):
        g = rng(10)
        x = g.standard_normal(5)
        y = g.standard_normal(3)
        _, s, _ = svd_dense(np.outer(x, y))
        assert np.isclose(s[0], np.linalg.norm(x) * np.linalg.norm(y))
        assert np.allclose(s[1:], 0.0, atol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_postconditions(self, seed):
        a = rng(seed).standard_normal((12, 7))
        u, s, v = svd_dense(a)
        assert np.allclose(u.T @ u, np.eye(7), atol=1e-9)
        assert np.allclose(v.T @ v, np.eye(7), atol=1e-9)
        assert np.linalg.norm((u * s) @ v.T - a) <= 1e-8 * np.linalg.norm(a)
        assert np.all(np.diff(s) <= 1e-12)
        for j in range(7):
            lead = u[np.abs(u[:, j]) > 1e-12, j]
            if lead.size:
                assert lead[0] >= 0

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_matches_jacobi_eigen_oracle(self, seed, n):
        a = rng(seed).standard_normal((n, n))
        _, s, _ = svd_dense(a)
        eigs = jacobi_eigvals(a.T @ a)
        assert np.allclose(s, np.sqrt(np.clip(eigs, 0, None)), atol=1e-8)

    def test_bit_reproducible(self):
        a = rng(11).standard_normal((9, 6))
        u1, s1, v1 = svd_dense(a)
        u2, s2, v2 = svd_dense(a)
        assert np.array_equal(u1, u2)
        assert np.array_equal(s1, s2)
        assert np.array_equal(v1, v2)


class TestSampleColumns:
    def test_identity_selection(self):
        w = rng(12).standard_normal((4, 6))
        assert np.array_equal(sample_columns(w, np.arange(6)), w)

    def test_single_column(self):
        w = rng(13).standard_normal((4, 6))
        assert np.array_equal(sample_columns(w, [0]), w[:, [0]])

    def test_subset_shape(self):
        w = rng(14).standard_normal((10, 200))
        idx = rng(15).choice(200, size=64, replace=False)
        assert sample_columns(w, idx).shape == (10, 64)

    def test_duplicates_permitted(self):
        w = rng(16).standard_normal((3, 4))
        out = sample_columns(w, [1, 1, 2])
        assert np.array_equal(out[:, 0], out[:, 1])

    def test_out_of_range(self):
        w = np.ones((2, 3))
        with pytest.raises(ShapeError):
            sample_columns(w, [3])
        with pytest.raises(ShapeError):
            sample_columns(w, [-1])
