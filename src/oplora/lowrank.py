"""Rank-r factor pairs, product distances, and the truncated-SVD oracle.

A :class:`FactorPair` ``(u, v)`` stands for the product ``u @ v.T`` and
is the currency every optimizer in this library trades in.  A weighted
sum of such products is a plain list of ``(c, left, right)`` terms,
which :func:`oplora.lorsum.lorsum` checks and compresses.  No function
here forms the dense product of a pair: the distances between products
go through r x r Grams.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .matcore import as_matrix, matmul, svd_dense


@dataclass
class FactorPair:
    """A rank-r factorization ``u @ v.T`` with u: (d_out, r), v: (d_in, r)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = as_matrix(self.u, "u")
        self.v = as_matrix(self.v, "v")
        if self.u.shape[1] != self.v.shape[1]:
            raise ShapeError(
                f"factor ranks disagree: {self.u.shape} vs {self.v.shape}")
        if self.rank > min(self.d_out, self.d_in):
            raise ShapeError(
                f"rank {self.rank} exceeds min dimension "
                f"{min(self.d_out, self.d_in)}")

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def d_out(self) -> int:
        return self.u.shape[0]

    @property
    def d_in(self) -> int:
        return self.v.shape[0]

    def copy(self) -> "FactorPair":
        return FactorPair(self.u.copy(), self.v.copy())


def truncated_svd(w, r: int) -> FactorPair:
    """Best rank-r approximation of ``w`` as a balanced factor pair.

    Both factors absorb a square root of the singular values, so
    ``u.T @ u == v.T @ v == diag(sigma_r)``.  Zero singular values yield
    exact zero columns; downstream solves must rely on damping.
    """
    w = as_matrix(w, "w")
    if r < 1 or r > min(w.shape):
        raise ShapeError(f"rank {r} invalid for shape {w.shape}")
    u, sigma, v = svd_dense(w)
    head = sigma[:r].copy()
    # numerically-zero singular values become exact zero columns
    cutoff = max(w.shape) * np.finfo(np.float64).eps * (sigma[0] if sigma.size else 0.0)
    head[head <= cutoff] = 0.0
    root = np.sqrt(head)
    return FactorPair(u[:, :r] * root, v[:, :r] * root)


def gram(a) -> np.ndarray:
    """``a.T @ a``, symmetrized to remove roundoff asymmetry."""
    g = matmul(a, a, transpose_a=True)
    return (g + g.T) / 2.0


def product_inner(p: FactorPair, q: FactorPair) -> float:
    """Frobenius inner product of two factor-pair products, kept thin.

    Diverging iterates may overflow to inf; that is the intended
    telemetry signal, not an error.
    """
    gu = matmul(p.u, q.u, transpose_a=True)
    gv = matmul(p.v, q.v, transpose_a=True)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(gu * gv))


def product_distance(p: FactorPair, q: FactorPair) -> float:
    """``||u_p v_p^T - u_q v_q^T||_F`` computed via r x r grams only."""
    sq = product_inner(p, p) + product_inner(q, q) - 2.0 * product_inner(p, q)
    return float(np.sqrt(max(sq, 0.0)))


def product_distance_to_dense(p: FactorPair, w) -> float:
    """``||u v^T - w||_F`` without forming the pair's product."""
    w = as_matrix(w, "w")
    with np.errstate(over="ignore", invalid="ignore"):
        cross = float(np.sum(p.u * matmul(w, p.v)))
        sq = product_inner(p, p) - 2.0 * cross + float(np.sum(w * w))
    return float(np.sqrt(max(sq, 0.0)))
