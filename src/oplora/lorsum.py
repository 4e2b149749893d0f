"""Alternating least-squares compression of weighted low-rank sums.

Given a target expressed as a weighted sum of thin products
``sum_i c_i U_i V_i^T``, passed as a list of ``(c_i, U_i, V_i)`` or
``(c_i, FactorPair(U_i, V_i))`` terms whose first term carries the
current rank-r iterate, :func:`lorsum` refines that anchor pair
``(U1, V1)`` toward the best rank-r approximation of the target.  The
sum is one thin product of stacked factors, so each half-step is one
such product and one r x r symmetric solve:

    V <- (lam * V1 + [c_i Dv^-1 V_i] [U_i]^T U) (U^T Du U + lam I)^-1
    U <- (lam * U1 + [c_i Du^-1 U_i] [V_i]^T V) (V^T Dv V + lam I)^-1

where ``[.]`` stacks blocks side by side, the anchor block (i = 1) is
never metric-scaled, ``lam`` is the proximal weight pulling both factors
toward the anchor, and ``Du`` / ``Dv`` are damped low-rank metrics
applied through the Woodbury identity (Euclidean when absent).  The two
half-steps are one routine applied to either side.  Work per call is
O(K * max(d_out, d_in) * sum_i k_i * r) and no full-size matrix is ever
formed.

:func:`lorsum` checks a ``(c, left, right)`` term's factors once on
entry and takes a ``(c, pair)`` term's as the pair holds them (see
``matcore``'s validation contract for where each was checked), and
:class:`Metric` checks each metric factor and its damping.  Everything
after that calls ``matcore``'s
unchecked cores, and the result is returned unchecked: each factor is
the last solution of its side, which the Cholesky core tested finite.
The identity at each rank is built once per process.  Each side's
blocks are stacked once, its non-anchor columns scaled by the side's
inverse metric together (one Woodbury solve per side), and weighted by
one multiply with each column's coefficient.  A half-step
charges its product ``outs @ (ins.T @ other)`` once and its Gram once,
with the flops and largest allocation that one charge per product
would give.  No system is tested before its solve:
the Cholesky core fails a NaN or infinite pivot and a non-finite
solution, and names a non-finite system (see ``matcore``'s validation
contract); the half-step only says where that happened.
"""

import math
from dataclasses import dataclass
from functools import cache
from numbers import Integral

import numpy as np

from .errors import NonFiniteError, ShapeError, SingularMetricError
from .lowrank import FactorPair, _unchecked_pair
from .matcore import _cholesky_solve, _gram, _product, _sandwich, as_matrix

MODES = ("alternating", "simultaneous")


@dataclass(frozen=True)
class Metric:
    """A damped symmetric PSD scale ``factor @ factor.T + delta I``.

    ``delta > 0``, as the low-rank part alone is never invertible;
    wherever a metric is optional, ``None`` stands for the Euclidean one.
    """

    factor: np.ndarray
    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ShapeError("metric damping delta must be positive")
        object.__setattr__(
            self, "factor", as_matrix(self.factor, "metric factor"))
        if self.factor.shape[1] == 0:
            raise ShapeError("a metric factor needs at least one column")


def check_count(value, name: str) -> None:
    """Raise ``ShapeError`` naming ``name`` unless ``value`` is an int >= 1."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ShapeError(f"{name} must be an integer >= 1, not {value!r}")


def _check_rows(m: Metric, x):
    if m is not None and m.factor.shape[0] != x.shape[0]:
        raise ShapeError(
            f"metric dimension {m.factor.shape[0]} does not match "
            f"rows {x.shape[0]}")


@cache
def _eye(n) -> np.ndarray:
    """The read-only n x n identity, built once per ``n``."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _inverse_metric(m: Metric, x) -> np.ndarray:
    """``(F F^T + delta I)^{-1} x`` via Woodbury (thin solves only) for a
    checked ``x``; ``None`` returns ``x`` itself."""
    if m is None:
        return x
    f = m.factor
    y = _product(f.T, x)
    small = _gram(f) / m.delta + _eye(f.shape[1])
    try:
        z = _cholesky_solve(small, y)
    except NonFiniteError as exc:
        raise NonFiniteError("the inverse metric's system holds "
                             "non-finite entries") from exc
    return (x - _product(f, z) / m.delta) / m.delta


def _metric_gram(m: Metric, x) -> np.ndarray:
    """``x^T (F F^T + delta I) x`` using thin products only, for a
    checked ``x`` with as many rows as the metric; PSD, and exactly
    symmetric as a sum of two exactly symmetric Grams."""
    if m is None:
        return _gram(x)
    return m.delta * _gram(x) + _gram(_product(m.factor.T, x))


def _half_step(side, other, k, lam_eye):
    """Solve for one factor given the other side's current estimate.

    ``side`` is ``(name, pull, outs, ins, metric)``: ``lam`` times this
    side's anchor factor, its stacked weighted (metric-scaled) term
    factors, the other side's stacked term factors, and the metric of
    the other side's Gram.  ``lam_eye`` is ``lam * I`` at the rank.
    ``den`` is symmetric by construction and is not tested: the Cholesky
    core fails a NaN or infinite pivot or solution and tells a
    non-finite system from a singular one; this only adds where.
    """
    name, pull, outs, ins, metric = side
    num = _sandwich(outs, ins, other)
    num += pull
    den = _metric_gram(metric, other) + lam_eye
    try:
        return _cholesky_solve(den, num.T).T
    except NonFiniteError as exc:
        raise NonFiniteError(f"non-finite system on the {name} side at "
                             f"iteration {k}") from exc
    except SingularMetricError as exc:
        raise SingularMetricError(
            f"singular system on the {name} side at iteration {k}: {exc}",
            pivot_index=exc.pivot_index, side=name, iteration=k) from exc


def _weighted(stacked, rank, metric, coefs) -> np.ndarray:
    """``stacked`` (a side's blocks side by side) times each column's
    coefficient; with a ``metric``, the columns past the anchor's first
    ``rank`` are scaled by its inverse first, all in one solve."""
    out = stacked * coefs
    if metric is not None and stacked.shape[1] > rank:
        out[:, rank:] = (_inverse_metric(metric, stacked[:, rank:])
                         * coefs[rank:])
    return out


def _checked_terms(terms) -> list:
    """``terms`` as ``(float, matrix, matrix)`` triples, each checked once.

    A ``(c, pair)`` term's factors are taken as the pair holds them: a
    ``FactorPair`` checked them when it was built.  Term widths k_i may
    differ; all terms must share d_out and d_in.
    """
    if not terms:
        raise ShapeError("a weighted factor sum needs at least one term")
    clean = []
    for i, term in enumerate(terms):
        pair = len(term) == 2 and isinstance(term[1], FactorPair)
        c, left, right = (term[0], term[1].u, term[1].v) if pair else term
        c = float(c)
        if not math.isfinite(c):
            raise ShapeError(f"term {i} has a non-finite coefficient")
        if not pair:
            left = as_matrix(left, f"terms[{i}].left")
            right = as_matrix(right, f"terms[{i}].right")
            if left.shape[1] != right.shape[1]:
                raise ShapeError(f"term {i} widths disagree: "
                                 f"{left.shape} vs {right.shape}")
        if clean and (left.shape[0] != clean[0][1].shape[0]
                      or right.shape[0] != clean[0][2].shape[0]):
            raise ShapeError(f"term {i} dimensions disagree with term 0")
        clean.append((c, left, right))
    return clean


def lorsum(terms, num_iters: int = 1, lam: float = 0.0,
           mode: str = "alternating", metric_u: Metric = None,
           metric_v: Metric = None) -> FactorPair:
    """Approximate ``sum_i c_i left_i right_i^T`` by a rank-r pair.

    ``terms`` is a non-empty sequence of ``(c, left, right)`` or
    ``(c, pair)`` terms, ``pair`` a :class:`FactorPair` standing for
    ``pair.u pair.v^T``.  The factors of ``terms[0]`` are the anchor:
    they supply both the starting estimate and the proximal pull of
    weight ``lam``, which is taken as already scaled (callers fold in
    any learning-rate factor).
    ``alternating`` updates the input-side factor V and then U from the
    new V; ``simultaneous`` computes both half-updates from the same
    estimates before committing either.  Raises
    :class:`SingularMetricError` naming the updated side and iteration
    when an r x r system is not positive definite (a degenerate anchor
    needs ``lam > 0`` or metric damping to be rescued), and
    :class:`NonFiniteError` naming them when it holds a NaN or inf or
    its solution overflows, so the returned pair, built without a
    pair's checks, holds finite float64 factors of the anchor's shapes.
    """
    check_count(num_iters, "num_iters")
    if not lam >= 0:
        raise ShapeError("the proximal weight lam must be nonnegative")
    if mode not in MODES:
        raise ShapeError(f"mode must be one of {MODES}")
    terms = _checked_terms(terms)
    _, left0, right0 = terms[0]
    rank, min_dim = left0.shape[1], min(left0.shape[0], right0.shape[0])
    if rank > min_dim:
        raise ShapeError(f"rank {rank} exceeds min dimension {min_dim}")
    _check_rows(metric_u, left0)
    _check_rows(metric_v, right0)

    # The inverse-metric scaling of non-anchor terms does not depend on
    # the evolving estimates, so each side's blocks are stacked once.
    coefs, lefts, rights = zip(*terms)
    coefs = np.array(coefs).repeat([a.shape[1] for a in lefts])
    ins_v, ins_u = np.concatenate(lefts, 1), np.concatenate(rights, 1)
    u_side = ("U", lam * left0, _weighted(ins_v, rank, metric_u, coefs),
              ins_u, metric_v)
    v_side = ("V", lam * right0, _weighted(ins_u, rank, metric_v, coefs),
              ins_v, metric_u)

    lam_eye = lam * _eye(rank)
    cur_u, cur_v = left0, right0
    for k in range(num_iters):
        if mode == "simultaneous":
            cur_u, cur_v = (_half_step(u_side, cur_v, k, lam_eye),
                            _half_step(v_side, cur_u, k, lam_eye))
        else:
            cur_v = _half_step(v_side, cur_u, k, lam_eye)
            cur_u = _half_step(u_side, cur_v, k, lam_eye)
    return _unchecked_pair(cur_u, cur_v)
