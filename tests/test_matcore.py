import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oplora import matcore
from oplora.errors import (ConvergenceError, DegenerateInputError,
                           NonFiniteError, ShapeError, SingularMetricError)
from oplora.instrument import counters
from oplora.lowrank import FactorPair
from oplora.matcore import (PIVOT_TOL, as_matrix, matmul, solve_spd,
                            svd_dense, thin_qr)
from oplora.nets import LoraLinear

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


def entrywise_as_matrix(a, name="operand"):
    """Reference coercion: an entrywise finiteness test on every call."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return out


def outcome(coerce, a):
    """What ``coerce(a, "w")`` returns or raises, in comparable form."""
    try:
        out = coerce(a, "w")
    except ShapeError as exc:
        return type(exc), str(exc)
    return (out.dtype, out.shape, out.tobytes(), out.flags.f_contiguous,
            out is a, isinstance(a, np.ndarray) and np.shares_memory(out, a))


# Inputs of every kind the library coerces, built from one float64 array.
FORMS = {
    "ndarray": lambda x: x,
    "list": lambda x: x.tolist(),
    "fortran": np.asfortranarray,
    "transposed": lambda x: x.T,
    "readonly": lambda x: np.lib.stride_tricks.as_strided(
        x, writeable=False),
    "float32": lambda x: x.astype(np.float32),
    "int": lambda x: np.nan_to_num(x, posinf=7, neginf=-7).clip(
        -1e9, 1e9).astype(np.int64),
    "1-d": np.ravel,
    "3-d": lambda x: x[None],
}

# Finite entries whose sum is not finite: the reduction alone cannot
# accept them, so they exercise the entrywise fallback.
OVERFLOWING = [
    [[1e308, 1e308]],
    [[1e308, 1e308], [-1e308, -1e308]],
    [[1e308] * 4, [-1e308] * 4],  # pairwise summation: inf + -inf = nan
]

ODD_SUMS = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")


class TestAsMatrix:
    @ODD_SUMS
    @settings(deadline=None, max_examples=300)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2,
                                           min_side=0, max_side=5),
                  elements=st.floats(allow_nan=True, allow_infinity=True)),
           st.sampled_from(sorted(FORMS)))
    def test_matches_entrywise_check(self, x, form):
        a = FORMS[form](x)
        assert outcome(as_matrix, a) == outcome(entrywise_as_matrix, a)

    @ODD_SUMS
    @pytest.mark.parametrize("entries", OVERFLOWING)
    def test_finite_entries_with_overflowing_sum_pass(self, entries):
        a = np.array(entries)
        assert not math.isfinite(np.add.reduce(a, axis=None))
        assert as_matrix(a) is a
        assert as_matrix(entries).tolist() == entries

    @ODD_SUMS
    @settings(deadline=None, max_examples=200)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2,
                                           min_side=1, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_any_non_finite_entry_raises(self, x, bad, data):
        i = data.draw(st.integers(0, x.shape[0] - 1))
        j = data.draw(st.integers(0, x.shape[1] - 1))
        x[i, j] = bad
        for a in (x, x.T, x.tolist(), np.asfortranarray(x)):
            with pytest.raises(NonFiniteError) as err:
                as_matrix(a, "w")
            assert str(err.value) == "w contains non-finite entries"

    @pytest.mark.parametrize("form", ["ndarray", "fortran", "transposed",
                                      "readonly"])
    def test_float64_ndarray_is_returned_as_is(self, form):
        a = FORMS[form](rng(0).standard_normal((3, 4)))
        assert as_matrix(a) is a

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (4, 0)])
    def test_zero_size_passes(self, shape):
        a = np.empty(shape)
        assert as_matrix(a) is a
        assert as_matrix(np.zeros(shape, dtype=np.int64)).shape == shape


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

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))
        # a layer's forward relies on this check for its input width
        layer = LoraLinear(None, FactorPair(np.ones((4, 1)), np.ones((3, 1))))
        with pytest.raises(ShapeError, match="inner dimensions disagree"):
            layer.forward(np.ones((2, 5)))

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


class TestMatmulTransposedViews:
    """A transpose reaches ``matmul`` as a ``.T`` view of its operand:
    ``matmul(a.T, b)`` (4 x 5) and ``matmul(a, c.T)`` (3 x 5), with ``a``
    3 x 4, ``b`` 3 x 5 and ``c`` 5 x 4."""

    @staticmethod
    def operands():
        g = rng(4)
        return (g.standard_normal((3, 4)), g.standard_normal((3, 5)),
                g.standard_normal((5, 4)))

    def test_bit_equal_to_numpy(self):
        a, b, c = self.operands()
        assert np.array_equal(matmul(a.T, b), a.T @ b)
        assert np.array_equal(matmul(a, c.T), a @ c.T)

    @pytest.mark.parametrize("left_t", [True, False])
    def test_charges_2mkn_flops_and_mn_alloc(self, left_t):
        a, b, c = self.operands()
        out = matmul(a.T, b) if left_t else matmul(a, c.T)
        m, n = out.shape
        k = 3 if left_t else 4
        assert (counters().flops, counters().peak_alloc) == (2 * m * k * n,
                                                             m * n)

    @pytest.mark.parametrize("left_t", [True, False])
    def test_each_operand_checked_once_without_a_copy(self, monkeypatch,
                                                      left_t):
        a, b, c = self.operands()
        ops = (a.T, b) if left_t else (a, c.T)
        seen, real = [], matcore.as_matrix

        def recording(x, name="operand"):
            out = real(x, name)
            seen.append((x, name, out))
            return out

        monkeypatch.setattr(matcore, "as_matrix", recording)
        matmul(*ops)
        assert [name for _, name, _ in seen] == ["a", "b"]
        for op, (x, _, out) in zip(ops, seen):
            assert x is op and out is op

    @pytest.mark.parametrize("left_t", [True, False])
    def test_nan_in_a_transposed_operand_is_named(self, left_t):
        a, b, c = self.operands()
        if left_t:
            b[1, 2] = np.nan
            ops, name = (b.T, a), "a"
        else:
            c[1, 2] = np.nan
            ops, name = (a, c.T), "b"
        with pytest.raises(NonFiniteError,
                           match=f"^{name} contains non-finite"):
            matmul(*ops)

    def test_inner_dimension_message_has_the_transposed_shapes(self):
        a, b, c = self.operands()
        with pytest.raises(ShapeError, match=r"^inner dimensions disagree: "
                           r"\(4, 3\) x \(4, 5\)$"):
            matmul(a.T, c.T)


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

    def test_empty_system_rejected(self):
        with pytest.raises(ShapeError, match="a must be square and nonempty"):
            solve_spd(np.zeros((0, 0)), np.zeros((0, 1)))

    def test_non_pd_reports_pivot(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(SingularMetricError) as err:
            solve_spd(a, np.ones((3, 1)))
        assert err.value.pivot_index == 1

    def test_tiny_positive_pivot_rejected(self):
        # LAPACK's own factorization accepts this matrix.
        a = np.array([[4.0, 2.0, 0.0], [2.0, 1.0 + 1e-13, 0.0],
                      [0.0, 0.0, 3.0]])
        with pytest.raises(SingularMetricError,
                           match=r"pivot 9\.992e-14 at index 1") as err:
            solve_spd(a, np.ones((3, 1)))
        assert err.value.pivot_index == 1

    def test_message_carries_pivot_value(self):
        a = np.diag([1.0, -0.5, 2.0])
        with pytest.raises(SingularMetricError, match=r"pivot -5\.000e-01 "
                           r"at index 1"):
            solve_spd(a, np.ones((3, 1)))

    @pytest.mark.parametrize("diag, pivot, index", [
        # tiny positive pivots LAPACK accepts
        ([1.0, 1e-13, 1e-14, 2.0], "1.000e-13", 1),
        # a tiny pivot before the one where LAPACK stops (info > 0)
        ([1.0, 1e-13, -1.0, 2.0], "1.000e-13", 1),
        # LAPACK stops at the first negative pivot, before later ones
        ([1.0, 2.0, -1.0, -3.0], "-1.000e+00", 2),
        # a squared pivot of exactly PIVOT_TOL is too small
        ([1.0, PIVOT_TOL, 2.0, 3.0], "1.000e-12", 1),
    ])
    def test_reports_the_first_of_several_bad_pivots(self, diag, pivot,
                                                     index):
        with pytest.raises(SingularMetricError) as err:
            solve_spd(np.diag(diag), np.ones((4, 1)))
        assert str(err.value) == ("matrix is not positive definite "
                                  f"(pivot {pivot} at index {index})")
        assert err.value.pivot_index == index

    def test_pivot_one_ulp_above_the_tolerance_solves(self):
        # its squared pivot is 1.0000000000000004e-12 > PIVOT_TOL
        diag = np.array([1.0, np.nextafter(PIVOT_TOL, np.inf), 2.0, 3.0])
        x = solve_spd(np.diag(diag), np.ones((4, 1)))
        assert np.allclose(x[:, 0], 1.0 / diag, rtol=1e-15)

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ShapeError):
            solve_spd(a, np.ones((2, 1)))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError, match="must be square"):
            solve_spd(np.ones((3, 4)), np.ones((3, 1)))

    def test_solves_a_600_dimensional_system(self):
        n = 600
        a = np.diag(np.linspace(1.0, 2.0, n))
        b = np.ones((n, 1))
        assert np.allclose(solve_spd(a, b), b / np.diag(a)[:, None],
                           rtol=1e-14)

    def test_overflowing_solution_rejected(self):
        with pytest.raises(NonFiniteError):
            solve_spd([[1e-6]], [[1e305]])


class TestCholeskyCore:
    """``_cholesky_solve`` tests no operand up front, yet a NaN or inf in
    the system is a :class:`NonFiniteError`, never a returned value and
    never a :class:`SingularMetricError`."""

    @pytest.mark.parametrize("a, b", [
        ([[np.inf, 0.0], [0.0, 1.0]], [[1.0], [1.0]]),
        ([[1.0, np.inf], [np.inf, 1.0]], [[1.0], [1.0]]),
        ([[np.nan, 0.0], [0.0, 1.0]], [[1.0], [1.0]]),
        # singular and finite, so only the entry test names it
        ([[1.0, 1.0], [1.0, 1.0]], [[np.nan], [1.0]]),
    ], ids=["inf_diagonal", "inf_off_diagonal", "nan_diagonal",
            "singular_with_nan_rhs"])
    def test_non_finite_system_rejected(self, a, b):
        with pytest.raises(NonFiniteError):
            matcore._cholesky_solve(np.array(a), np.array(b))


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
        assert np.allclose(r, np.triu(r), atol=1e-14)

    def test_rank_deficient_rejected(self):
        col = rng(9).standard_normal((6, 1))
        a = np.hstack([col, 2.0 * col])
        with pytest.raises(DegenerateInputError):
            thin_qr(a)

    def test_wide_rejected(self):
        with pytest.raises(ShapeError):
            thin_qr(np.ones((2, 3)))

    @pytest.mark.parametrize("rows", [0, 3])
    def test_no_columns_give_the_empty_factorization(self, rows):
        q, r = thin_qr(np.ones((rows, 0)))
        assert q.shape == (rows, 0) and r.shape == (0, 0)


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


def random_symmetric(seed, n):
    a = rng(seed).standard_normal((n, n))
    return a + a.T


class TestEighTop:
    """The core ``_eigh_top``; its operand is truncated_svd's Gram, which
    it builds symmetric and finite, and its ``k`` is in range."""

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000), st.integers(1, 12), st.data())
    def test_matches_numpy_top_k(self, seed, n, data):
        k = data.draw(st.integers(1, n), label="k")
        a = random_symmetric(seed, n)
        lam, q = matcore._eigh_top(a, k)
        ref_lam, ref_q = np.linalg.eigh(a)
        ref_lam, ref_q = ref_lam[::-1][:k], ref_q[:, ::-1][:, :k]
        assert lam.shape == (k,) and q.shape == (n, k)
        assert np.all(np.diff(lam) <= 0.0)
        scale = max(1.0, float(np.abs(ref_lam).max()))
        assert np.allclose(lam, ref_lam, rtol=0.0, atol=1e-12 * scale)
        assert np.allclose(q.T @ q, np.eye(k), atol=1e-12)
        # eigenvectors of simple eigenvalues agree up to sign
        gaps = np.abs(np.diff(np.linalg.eigvalsh(a)))
        if n == 1 or gaps.min() > 1e-6 * scale:
            signs = np.sign(np.sum(q * ref_q, axis=0))
            assert np.allclose(q, ref_q * signs, atol=1e-9)

    def test_linalg_error_becomes_convergence_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(matcore, "eigh", failing)
        with pytest.raises(ConvergenceError, match="no convergence"):
            matcore._eigh_top(np.eye(3), 2)

    def test_charges_flops_and_allocation(self):
        n, k = 30, 4
        matcore._eigh_top(random_symmetric(1, n), k)
        assert counters().flops == 4 * n ** 3 // 3 + 2 * n * n * k
        assert counters().peak_alloc == n * k

    def test_bit_reproducible(self):
        a = random_symmetric(2, 9)
        lam1, q1 = matcore._eigh_top(a, 3)
        lam2, q2 = matcore._eigh_top(a, 3)
        assert np.array_equal(lam1, lam2)
        assert np.array_equal(q1, q2)
