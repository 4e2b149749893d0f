"""Rank-r factor pairs, product distances, and the truncated-SVD oracle.

A :class:`FactorPair` ``(u, v)`` stands for the product ``u @ v.T`` and
is the currency every optimizer in this library trades in.  Only the
product is meaningful: the factors carry LAPACK's signs, and negating a
column in both changes neither the product nor any distance computed
from it.  A weighted sum of such products is a plain list of
``(c, left, right)`` or ``(c, pair)`` terms, which
:func:`oplora.lorsum.lorsum` compresses; it checks a raw term's factors
and takes a pair's as the pair checked them.  ``_unchecked_pair``
builds a pair without those checks, in ``lorsum`` and ``optim`` only
(``tests/test_core_imports.py``).
No function here forms the dense product of a pair: the distances
between products go through r x r Grams.

:func:`truncated_svd`, :func:`product_distance_to_dense` and
:func:`telemetry_reference` check ``w`` once and then call ``matcore``'s
unchecked cores (see its validation contract); the Gram that
truncated_svd builds goes to ``_eigh_top``.  The product distances form
each r x r Gram of the pairs' factors once, with the unchecked core: a
pair checks its factors when it is built, and nothing changes them
afterwards.

The runner's linear telemetry calls neither distance: it calls
:func:`loss_and_gap` against a :class:`TelemetryReference` that it
builds once per experiment.  It returns the loss and the gap the two
distances give, bit for bit, from 5 charged products instead of 9.
``report.gap_report`` calls :func:`product_distance`.  All of them take
the route ``|P|^2 + |Q|^2 - 2 <P, Q>``, which cancels where the
distance is small next to the products; it stays until the exact gaps
of ROADMAP item 12.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .matcore import (_eigh_top, _gram, _product, as_matrix, check_rank,
                      matmul, svd_dense)

EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).tiny
# Largest a-priori error estimate of the Gram route in truncated_svd.
GRAM_TOL = 1e-12


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


def _unchecked_pair(u, v) -> FactorPair:
    """A :class:`FactorPair` of float64 matrices ``u`` and ``v`` that
    their maker has checked, built without ``__post_init__``'s checks:
    ``lorsum``'s solved factors, ``oplora_step``'s captured gradient
    ``(S^T, X^T)``, whose width B may exceed the rank bound, and the
    metric EMA's terms, a metric's factor and a captured batch."""
    pair = object.__new__(FactorPair)
    pair.u, pair.v = u, v
    return pair


def truncated_svd(w, r: int) -> FactorPair:
    """Best rank-r approximation of ``w`` as a balanced factor pair.

    Both factors absorb a square root of the singular values, so
    ``u.T @ u == v.T @ v == diag(sigma_r)``.  Zero singular values
    yield exact zero columns; downstream solves must rely on damping.

    The top r + 1 eigenvectors of the Gram of ``w``'s smaller side span
    a subspace holding the top r singular vectors, and a Rayleigh-Ritz
    step (the SVD of ``w`` restricted to it) returns the triplets.
    Rounding the Gram perturbs that subspace by about
    ``eps * lambda_1 / (lambda_r - lambda_{r+1})``; where this a-priori
    estimate exceeds ``GRAM_TOL`` (an ill-conditioned, rank-deficient or
    nearly degenerate spectrum, or a Gram that underflows), where the
    Gram overflows, and where r is the smaller side, the full
    :func:`svd_dense` of ``w`` is truncated instead.
    """
    w = as_matrix(w, "w")
    check_rank(r, "r", w.shape)
    ritz = _gram_ritz(w, r) if r < min(w.shape) else None
    u, sigma, v = ritz if ritz is not None else svd_dense(w)
    head = sigma[:r].copy()
    # numerically-zero singular values become exact zero columns
    cutoff = max(w.shape) * EPS * sigma[0]
    head[head <= cutoff] = 0.0
    root = np.sqrt(head)
    return FactorPair(u[:, :r] * root, v[:, :r] * root)


def _gram_ritz(w, r: int):
    """The top r + 1 singular triplets of ``w`` by the Gram route, or
    None where its a-priori error estimate exceeds ``GRAM_TOL``."""
    tall = w.shape[0] >= w.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        g = _gram(w if tall else w.T)
    if not np.isfinite(g).all():  # overflow; svd_dense scales internally
        return None
    # g is symmetric by construction and finite, and r + 1 <= its side
    lam, q = _eigh_top(g, r + 1)
    # TINY stands in for eps * lambda_1 where the Gram underflows.
    if max(EPS * lam[0], TINY) > GRAM_TOL * (lam[r - 1] - lam[r]):
        return None
    if tall:
        u, sigma, x = svd_dense(_product(w, q))
        return u, sigma, _product(q, x)
    x, sigma, v = svd_dense(_product(q.T, w))
    return _product(q, x), sigma, v


def product_inner(p: FactorPair, q: FactorPair) -> float:
    """Frobenius inner product of two factor-pair products, kept thin,
    with ``matmul``'s checks of all four factors.

    No caller in the library: the distances below skip those checks.
    It stays because perfbench's tracer test reaches ``matmul`` through
    this module's namespace.
    """
    gu = matmul(p.u.T, q.u)
    gv = matmul(p.v.T, q.v)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(gu * gv))


def _inner(p: FactorPair, q: FactorPair) -> float:
    """Frobenius inner product of two pairs' products, from r x r Grams
    of their factors, which the pairs checked when they were built."""
    return _sum(_product(p.u.T, q.u) * _product(p.v.T, q.v))


def _sum(a) -> float:
    """``float(np.sum(a))`` of a float64 array: the same pairwise
    reduction, without ``np.sum``'s dispatch."""
    return float(np.add.reduce(a, None))


def _root(sq) -> float:
    """The distance whose square ``sq`` a Gram route computed; a
    negative ``sq`` is cancellation and reads 0."""
    return float(np.sqrt(max(sq, 0.0)))


def product_distance(p: FactorPair, q: FactorPair) -> float:
    """``||u_p v_p^T - u_q v_q^T||_F`` computed via r x r grams only.

    Diverging iterates may overflow to inf; that is the intended
    telemetry signal, not an error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq = _inner(p, p) + _inner(q, q) - 2.0 * _inner(p, q)
    return _root(sq)


def _check_shape(w, p: FactorPair) -> None:
    """Reject a ``w`` that is not ``p``'s ``d_out x d_in``: a mismatch
    can broadcast to a distance instead of failing."""
    if w.shape != (p.d_out, p.d_in):
        raise ShapeError(f"w {w.shape} does not match the pair's "
                         f"({p.d_out}, {p.d_in})")


def product_distance_to_dense(p: FactorPair, w) -> float:
    """``||u v^T - w||_F`` without forming the pair's product."""
    w = as_matrix(w, "w")
    _check_shape(w, p)
    with np.errstate(over="ignore", invalid="ignore"):
        cross = _sum(p.u * _product(w, p.v))
        sq = _inner(p, p) - 2.0 * cross + _sum(w * w)
    return _root(sq)


class TelemetryReference(NamedTuple):
    """A linear run's target ``w`` and oracle pair ``q``, with their
    squared norms ``w_sq`` and ``q_sq``: the constants of
    :func:`loss_and_gap`, built once per experiment by
    :func:`telemetry_reference`."""

    w: np.ndarray
    w_sq: float
    q: FactorPair
    q_sq: float


def telemetry_reference(w, q: FactorPair) -> TelemetryReference:
    """Check the target ``w`` against the oracle ``q``'s shape once and
    compute both squared norms; an overflow to inf is kept, as the
    distances keep it."""
    w = as_matrix(w, "w")
    _check_shape(w, q)
    with np.errstate(over="ignore", invalid="ignore"):
        return TelemetryReference(w, _sum(w * w), q, _inner(q, q))


def loss_and_gap(p: FactorPair, ref: TelemetryReference):
    """``(0.5 * ||u v^T - w||_F^2, ||u v^T - u_q v_q^T||_F)``: the linear
    task's loss and oracle gap of the pair ``p``.

    Bit for bit ``0.5 * product_distance_to_dense(p, ref.w) ** 2`` and
    ``product_distance(p, ref.q)``, with the same products
    and summation order, but p's Grams are formed once for both and the
    reference's norms come from set-up: 5 charged products instead of
    9.  A diverging ``p`` gives inf or NaN, without a warning.
    """
    _check_shape(ref.w, p)
    with np.errstate(over="ignore", invalid="ignore"):
        p_sq = _inner(p, p)
        cross = _sum(p.u * _product(ref.w, p.v))
        loss_sq = p_sq - 2.0 * cross + ref.w_sq
        gap_sq = p_sq + ref.q_sq - 2.0 * _inner(p, ref.q)
    return 0.5 * _root(loss_sq) ** 2, _root(gap_sq)
