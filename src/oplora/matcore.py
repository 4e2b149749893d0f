"""Dense matrix micro-kernels sized for thin and small-matrix workloads.

Everything is 64-bit, validated on entry, and deterministic given
identical inputs (fixed summation order within one BLAS build).  Dense
full-size matrices are only ever acceptable here, and only on oracle,
baseline, and test paths; optimizer hot paths must stay with
factor-shaped operands.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular

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
    """Coerce to a finite float64 2-d array, copying only when needed."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return out


def matmul(a, b, transpose_a=False, transpose_b=False) -> np.ndarray:
    """Dense product of ``a`` and ``b`` with optional transposition."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    left = a.T if transpose_a else a
    right = b.T if transpose_b else b
    if left.shape[1] != right.shape[0]:
        raise ShapeError(
            f"inner dimensions disagree: {left.shape} x {right.shape}")
    m, k = left.shape
    n = right.shape[1]
    charge(flops=2 * m * k * n, alloc=m * n)
    return left @ right


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with explicit pivot checks."""
    n = a.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        row = low[j, :j]
        pivot = a[j, j] - row @ row
        if pivot <= PIVOT_TOL:
            raise SingularMetricError(
                f"matrix is not positive definite "
                f"(pivot {pivot:.3e} at index {j})",
                pivot_index=j,
            )
        d = math.sqrt(pivot)
        low[j, j] = d
        if j + 1 < n:
            low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ row) / d
    return low


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a``.

    Uses a Cholesky factorization followed by two triangular solves, so
    the residual satisfies ||a x - b||_F <= 1e-8 * max(1, ||b||_F) for
    reasonably conditioned systems.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ShapeError(f"a must be square, got {a.shape}")
    if n > SPD_DIM_CAP:
        raise DensePolicyError(
            f"solve_spd dimension {n} exceeds cap {SPD_DIM_CAP}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > SYMMETRY_TOL * scale:
        raise ShapeError("a is not symmetric within tolerance")
    if b.shape[0] != n:
        raise ShapeError(f"b has {b.shape[0]} rows, expected {n}")
    low = _cholesky_lower(a)
    y = solve_triangular(low, b, lower=True)
    x = solve_triangular(low.T, y, lower=False)
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
    mask = np.abs(u) > SIGN_TOL
    first = mask.argmax(axis=0)
    has_lead = mask.any(axis=0)
    lead = u[first, np.arange(u.shape[1])]
    flip = has_lead & (lead < 0.0)
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    m, n = a.shape
    k = min(m, n)
    charge(flops=4 * m * n * k + 8 * k * k * k, alloc=(m + n) * k)
    return u, s, v


def sample_columns(w, indices) -> np.ndarray:
    """Select columns of ``w`` in index order; duplicates permitted."""
    w = as_matrix(w, "w")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("indices must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= w.shape[1]):
        raise ShapeError(
            f"column index out of range [0, {w.shape[1]})")
    charge(alloc=w.shape[0] * idx.size)
    return w[:, idx]
