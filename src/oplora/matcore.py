"""Dense matrix micro-kernels sized for thin and small-matrix workloads.

Everything is 64-bit and deterministic given identical inputs (fixed
summation order within one BLAS build).  Dense full-size matrices are
only ever acceptable here, and only on oracle, baseline, and test paths;
optimizer hot paths must stay with factor-shaped operands.

Validation contract: every public kernel checks the shape and
finiteness of each of its own operands on every call and raises a typed
error naming the operand.  The checks are exact (they accept and reject
exactly the inputs an entrywise test would).  On the optimizer's step
they are made once, where an array enters it, and not again on every
product: a ``FactorPair`` checks its factors when it is built, a
``Metric`` its factor, a ``LoraLinear`` its base weight, its
``forward`` the input and its ``backward`` the output gradient,
``linear_task_grad`` its S capture, and ``lorsum`` a raw term's
factors.  An activation can zero a NaN or -inf pre-activation before it
reaches the step's result, so the MLP pass checks every layer's output
(each pre-activation and the logits) before an activation or the loss
sees it.  ``oplora_step`` then checks nothing again: its three
``lorsum`` calls (weight, momentum, metric EMA) take only ``(c, pair)``
terms.  Other than the adapter and the momentum, each is built without
the pair's checks (``lowrank._unchecked_pair``): the captured gradient
``(S^T, X^T)`` and the EMA's ``(F, F)`` and ``(X^T, X^T)`` or
``(S^T, S^T)``, as the pass checked S and X (an index X is a finite
one-hot), ``Metric`` checked F, and B may exceed a pair's rank bound.
``lorsum`` returns its solutions, tested finite as solved, through the
same constructor.  A scaled step checks only the two metric factors
that LAPACK made, as ``Metric`` builds them.

Each checked kernel is its checks followed by a private core that
charges and computes without them: ``matmul`` calls :func:`_product`,
``gram`` :func:`_gram` and ``solve_spd`` :func:`_cholesky_solve`.  Two
cores have no checked kernel.  :func:`_sandwich`, ``a @ (b.T @ c)``, is
a lorsum half-step's product, charged once with the flops of both
products and the larger of their sizes, as two ``_product`` calls would
charge them.  :func:`_eigh_top` computes truncated_svd's top
eigenpairs.  A Gram is exactly symmetric as ``a.T @ a`` forms it, and
its consumers (``dposv`` and ``dsyevr``) read one triangle.
``matmul(a, b)`` takes its operands as multiplied, as ``_product``
does: a transpose is passed as a ``.T`` view, which :func:`as_matrix`
returns unchanged, so it is neither copied nor checked twice.  Three
modules call the cores from outside, on operands checked at those
boundaries or built from them by products, sums and solves, which
cannot hide a NaN or inf (0 * inf is NaN): ``lorsum`` uses
``_product``, ``_sandwich``, ``_gram`` and ``_cholesky_solve``;
``lowrank`` ``_product``, ``_gram`` and ``_eigh_top``; ``nets``' layer
pass ``_product`` only.  truncated_svd passes the Gram it
built symmetric and tested finite to :func:`_eigh_top`, and its thin
products to the checked ``svd_dense``.  Callers test no system
before :func:`_cholesky_solve`: it gives the verdict on every solve, a
:class:`NonFiniteError` when the system or its solution holds a NaN or
inf, else a :class:`SingularMetricError` when a pivot fails.  A solve
that succeeds costs one combined test on the factor's diagonal, read as
a Python list (its smallest and largest entry, and its sum for a NaN),
and one finiteness test of the solution; only a failed one computes
each pivot.

The factorizations impose no sign convention: ``thin_qr``'s and
``svd_dense``'s columns carry LAPACK's signs.  Callers use factors only
through their products, which negating matching columns of both factors
leaves bit for bit unchanged.
"""

import math
from numbers import Integral

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dposv

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    NonFiniteError,
    ShapeError,
    SingularMetricError,
)
from .instrument import charge

SYMMETRY_TOL = 1e-10
PIVOT_TOL = 1e-12
RANK_TOL = 1e-12


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
    return (math.isfinite(np.add.reduce(a, None))
            or bool(np.isfinite(a).all()))


def check_rank(k, name, shape) -> None:
    """Reject a ``k`` that is not an int (a bool is not one) in
    [1, min(shape)], naming it ``name``."""
    if (isinstance(k, bool) or not isinstance(k, Integral)
            or not 1 <= k <= min(shape)):
        raise ShapeError(f"{name}={k} invalid for a "
                         f"{shape[0]}x{shape[1]} matrix")


def matmul(a, b) -> np.ndarray:
    """Dense product ``a @ b`` of the operands as multiplied."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    return _product(a, b)


def _product(left, right) -> np.ndarray:
    """Charged ``left @ right`` of conforming float64 matrices, unchecked."""
    m, k = left.shape
    n = right.shape[1]
    charge(flops=2 * m * k * n, alloc=m * n)
    return left @ right


def gram(a) -> np.ndarray:
    """``a.T @ a``, exactly symmetric (see :func:`_gram`)."""
    return _gram(as_matrix(a, "a"))


def _sandwich(a, b, c) -> np.ndarray:
    """``a @ (b.T @ c)`` of conforming float64 matrices, unchecked, with
    one charge for both products."""
    (d, k), (n, r) = a.shape, c.shape
    charge(flops=2 * k * r * (n + d), alloc=max(k, d) * r)
    return a @ (b.T @ c)


def _gram(a) -> np.ndarray:
    """:func:`gram` of a finite float64 matrix, unchecked.  numpy forms
    ``a.T @ a`` with BLAS's symmetric rank-k update and mirrors one
    triangle, so the result is exactly symmetric as it stands."""
    n, k = a.shape
    charge(flops=2 * k * n * k, alloc=k * k)
    return a.T @ a


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a``.

    LAPACK's Cholesky factorization and solve in one call (``dposv``),
    at any dimension; the residual satisfies
    ||a x - b||_F <= 1e-8 * max(1, ||b||_F) for reasonably conditioned
    systems.  The first pivot at or below ``PIVOT_TOL``, or NaN or
    infinite, raises :class:`SingularMetricError`, even a positive one
    that LAPACK accepts; a solution that overflows raises
    :class:`NonFiniteError`.
    """
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1] or not a.size:
        raise ShapeError(f"a must be square and nonempty, got {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > SYMMETRY_TOL * scale:
        raise ShapeError("a is not symmetric within tolerance")
    return _cholesky_solve(a, as_matrix(b, "b"))


def _cholesky_solve(a, b) -> np.ndarray:
    """:func:`solve_spd` of a symmetric float64 ``a`` and a float64 ``b``,
    unchecked: their entries are tested only after a pivot or the
    solution fails, to tell a non-finite system from a singular one."""
    n = a.shape[0]
    if b.shape[0] != n:
        raise ShapeError(f"b has {b.shape[0]} rows, expected {n}")
    low, x, info = dposv(a, b, lower=True)
    # Pivots are the squared diagonal.  Where LAPACK finishes (info == 0)
    # the diagonal holds square roots, each >= 0 or NaN, so the smallest
    # and largest pivot are those of its smallest and largest entry.
    # OpenBLAS finishes over a NaN pivot too, and Python's min and max
    # skip a NaN that is not the first entry, so a NaN fails the sum.
    diag = low.diagonal()
    entries = diag.tolist()
    lo, hi = min(entries), max(entries)
    if (not info and lo * lo > PIVOT_TOL and hi * hi < math.inf
            and not math.isnan(sum(entries)) and _all_finite(x)):
        m = b.shape[1]
        charge(flops=n * n * n // 3 + 2 * n * n * m, alloc=n * m)
        return x
    # Where LAPACK stops (info > 0) it leaves the failing pivot itself on
    # the diagonal.
    pivots = diag[:info or n] ** 2
    if info:
        pivots[-1] = low[info - 1, info - 1]
    good = (pivots > PIVOT_TOL) & (pivots < np.inf)
    # A NaN or inf in the system fails a pivot or the solution.  The
    # entries are tested only now, so that such a system is named as one.
    if not good.all() and _all_finite(a) and _all_finite(b):
        j = int(good.argmin())
        raise SingularMetricError(f"matrix is not positive definite "
                                  f"(pivot {pivots[j]:.3e} at index {j})",
                                  pivot_index=j)
    raise NonFiniteError("the system or its solution is not finite")


def thin_qr(a):
    """Reduced QR of a tall matrix, as ``np.linalg.qr`` returns it.

    Returns ``(q, r_factor)`` with orthonormal ``q`` columns and an
    upper-triangular R whose diagonal carries LAPACK's signs.  Raises on
    rank deficiency (smallest |R_jj| at or below 1e-12); an operand with
    no columns has the empty factorization.
    """
    a = as_matrix(a, "a")
    d, r = a.shape
    if d < r:
        raise ShapeError(f"thin_qr needs rows >= cols, got {a.shape}")
    q, rm = np.linalg.qr(a, mode="reduced")
    if r and float(np.min(np.abs(np.diagonal(rm)))) <= RANK_TOL:
        raise DegenerateInputError(
            "input is rank deficient (tiny diagonal in R)")
    charge(flops=2 * d * r * r, alloc=d * r)
    return q, rm


def _eigh_top(a, k):
    """The ``k`` largest eigenpairs of a symmetric finite float64 ``a``,
    for a ``k`` in [1, n], unchecked.

    Returns ``(lam, q)`` with ``lam`` nonincreasing and orthonormal
    columns ``q`` such that ``a @ q ~= q * lam``.  LAPACK's ``dsyevr``
    (relatively robust representations) computes only the requested
    pairs from ``a``'s lower triangle; the tridiagonal reduction still
    costs O(n^3).
    """
    n = a.shape[0]
    try:
        lam, q = eigh(a, subset_by_index=[n - k, n - 1], driver="evr",
                      check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigendecomposition failed to converge: {exc}") from exc
    charge(flops=4 * n * n * n // 3 + 2 * n * n * k, alloc=n * k)
    return lam[::-1].copy(), q[:, ::-1].copy()


def svd_dense(a):
    """Full thin SVD, with LAPACK's signs on the singular vectors.

    Returns ``(u, sigma, v)`` with ``a = u @ diag(sigma) @ v.T`` and
    sigma nonincreasing.  Oracle and baseline paths only.
    """
    a = as_matrix(a, "a")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD failed to converge: {exc}") from exc
    m, n = a.shape
    k = min(m, n)
    charge(flops=4 * m * n * k + 8 * k * k * k, alloc=(m + n) * k)
    return u, s, vt.T.copy()
