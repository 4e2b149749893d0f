"""Dense matrix micro-kernels sized for thin and small-matrix workloads.

Everything is 64-bit and deterministic given identical inputs (fixed
summation order within one BLAS build).  Dense full-size matrices are
only ever acceptable here, and only on oracle, baseline, and test paths;
optimizer hot paths must stay with factor-shaped operands.

Validation contract: every public kernel checks the shape and
finiteness of each of its own operands on every call and raises a typed
error naming the operand.  The checks are exact (they accept and reject
exactly the inputs an entrywise test would) and cheap next to the small
products they guard.  They stay per call, not at a step's boundary,
because an activation can zero a NaN or -inf pre-activation before it
reaches the step's result.

Each checked kernel is its checks followed by a private core that
charges and computes without them: ``matmul`` calls :func:`_product`,
``gram`` :func:`_gram` and ``solve_spd`` :func:`_cholesky_solve`.  Only
``lorsum`` and ``lowrank.truncated_svd`` call the cores from outside, on
operands they checked at their boundary or built from them by products,
sums and solves, which cannot hide a NaN or inf (0 * inf is NaN).
truncated_svd passes its results to the checked ``eigh_top`` and
``svd_dense``; lorsum tests each system's operands for finiteness before
it solves, where LAPACK's Cholesky would turn a NaN into a failed pivot,
a :class:`SingularMetricError` instead of a :class:`NonFiniteError`.
"""

import math

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DensePolicyError,
    NonFiniteError,
    ShapeError,
    SingularMetricError,
)
from .instrument import charge

# Largest symmetric system solve_spd accepts; the library never needs
# solves beyond a few multiples of the adapter rank.
SPD_DIM_CAP = 512
SYMMETRY_TOL = 1e-10
PIVOT_TOL = 1e-12
RANK_TOL = 1e-12
SIGN_TOL = 1e-12


def as_matrix(a, name="operand") -> np.ndarray:
    """Coerce to a finite float64 2-d array, copying only when needed.

    A float64 ndarray comes back as the same object.  Any NaN or +-inf
    entry makes the sum of all entries non-finite, so a finite sum
    proves every entry finite; only a non-finite sum (which finite
    entries can also reach by overflow) needs the entrywise test.  Such
    a sum makes numpy emit its overflow or invalid-value RuntimeWarning.
    """
    if type(a) is np.ndarray and a.dtype == np.float64:
        out = a
    else:
        out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got ndim={out.ndim}")
    if not _all_finite(out):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return out


def _all_finite(a) -> bool:
    """Whether every entry of the float64 array ``a`` is finite."""
    return (math.isfinite(np.add.reduce(a, axis=None))
            or bool(np.isfinite(a).all()))


def _symmetric_operand(a) -> np.ndarray:
    """:func:`as_matrix`, then reject a non-square or asymmetric ``a``."""
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"a must be square, got {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > SYMMETRY_TOL * scale:
        raise ShapeError("a is not symmetric within tolerance")
    return a


def matmul(a, b, transpose_a=False, transpose_b=False) -> np.ndarray:
    """Dense product of ``a`` and ``b`` with optional transposition."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    left = a.T if transpose_a else a
    right = b.T if transpose_b else b
    if left.shape[1] != right.shape[0]:
        raise ShapeError(
            f"inner dimensions disagree: {left.shape} x {right.shape}")
    return _product(left, right)


def _product(left, right) -> np.ndarray:
    """Charged ``left @ right`` of conforming float64 matrices, unchecked."""
    m, k = left.shape
    n = right.shape[1]
    charge(flops=2 * m * k * n, alloc=m * n)
    return left @ right


def gram(a) -> np.ndarray:
    """``a.T @ a``, symmetrized to remove roundoff asymmetry."""
    return _gram(as_matrix(a, "a"))


def _gram(a) -> np.ndarray:
    """:func:`gram` of a finite float64 matrix, unchecked."""
    g = _product(a.T, a)
    return (g + g.T) / 2.0


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a``.

    LAPACK's Cholesky factorization and solve (``dpotrf``/``dpotrs``);
    the residual satisfies ||a x - b||_F <= 1e-8 * max(1, ||b||_F) for
    reasonably conditioned systems.  The first pivot at or below
    ``PIVOT_TOL`` raises, even a positive one that LAPACK accepts.
    """
    return _cholesky_solve(_symmetric_operand(a), as_matrix(b, "b"))


def _cholesky_solve(a, b) -> np.ndarray:
    """:func:`solve_spd` of a symmetric ``a`` and a ``b`` that are finite
    float64 matrices, without checking either."""
    n = a.shape[0]
    if n > SPD_DIM_CAP:
        raise DensePolicyError(
            f"solve_spd dimension {n} exceeds cap {SPD_DIM_CAP}")
    if b.shape[0] != n:
        raise ShapeError(f"b has {b.shape[0]} rows, expected {n}")
    low, info = dpotrf(a, lower=True)
    # Pivots are the squared diagonal, but where LAPACK stops (info > 0)
    # it leaves the failing pivot itself on the diagonal.
    pivots = np.diagonal(low)[:info or n] ** 2
    if info:
        pivots[-1] = low[info - 1, info - 1]
    bad = pivots <= PIVOT_TOL
    if bad.any():
        j = int(bad.argmax())
        raise SingularMetricError(f"matrix is not positive definite "
                                  f"(pivot {pivots[j]:.3e} at index {j})",
                                  pivot_index=j)
    x, _ = dpotrs(low, b, lower=True)
    m = b.shape[1]
    charge(flops=n * n * n // 3 + 2 * n * n * m, alloc=n * m)
    return x


def thin_qr(a):
    """Reduced QR of a tall matrix with a nonnegative-diagonal R.

    Returns ``(q, r_factor)`` with orthonormal ``q`` columns.  Raises
    on rank deficiency (smallest |R_jj| at or below 1e-12).
    """
    a = as_matrix(a, "a")
    d, r = a.shape
    if d < r:
        raise ShapeError(f"thin_qr needs rows >= cols, got {a.shape}")
    q, rm = np.linalg.qr(a, mode="reduced")
    diag = np.diagonal(rm)
    if float(np.min(np.abs(diag))) <= RANK_TOL:
        raise DegenerateInputError(
            "input is rank deficient (tiny diagonal in R)")
    sign = np.where(diag < 0.0, -1.0, 1.0)
    q = q * sign
    rm = rm * sign[:, None]
    charge(flops=2 * d * r * r, alloc=d * r)
    return q, rm


def eigh_top(a, k):
    """The ``k`` largest eigenpairs of a symmetric matrix.

    Returns ``(lam, q)`` with ``lam`` nonincreasing and orthonormal
    columns ``q`` such that ``a @ q ~= q * lam``.  LAPACK's ``dsyevr``
    (relatively robust representations) computes only the requested
    pairs; the tridiagonal reduction still costs O(n^3).
    """
    a = _symmetric_operand(a)
    n = a.shape[0]
    if k < 1 or k > n:
        raise ShapeError(f"k={k} invalid for a {n}x{n} matrix")
    try:
        lam, q = eigh(a, subset_by_index=[n - k, n - 1], driver="evr",
                      check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigendecomposition failed to converge: {exc}") from exc
    charge(flops=4 * n * n * n // 3 + 2 * n * n * k, alloc=n * k)
    return lam[::-1].copy(), q[:, ::-1].copy()


def lead_nonnegative(u, v) -> None:
    """Flip paired columns in place so that the first entry of each
    ``u`` column whose magnitude exceeds 1e-12 is nonnegative."""
    mask = np.abs(u) > SIGN_TOL
    first = mask.argmax(axis=0)
    has_lead = mask.any(axis=0)
    lead = u[first, np.arange(u.shape[1])]
    flip = has_lead & (lead < 0.0)
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0


def svd_dense(a):
    """Full thin SVD with a deterministic sign convention.

    Returns ``(u, sigma, v)`` with ``a = u @ diag(sigma) @ v.T``, sigma
    nonincreasing, and the first entry of each left singular vector
    whose magnitude exceeds 1e-12 made nonnegative.  Oracle and baseline
    paths only.
    """
    a = as_matrix(a, "a")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD failed to converge: {exc}") from exc
    v = vt.T.copy()
    u = u.copy()
    lead_nonnegative(u, v)
    m, n = a.shape
    k = min(m, n)
    charge(flops=4 * m * n * k + 8 * k * k * k, alloc=(m + n) * k)
    return u, s, v

