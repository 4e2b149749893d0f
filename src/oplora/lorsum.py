"""Alternating least-squares compression of weighted low-rank sums.

Given a target expressed as a weighted sum of thin products
``sum_i c_i U_i V_i^T``, passed as a list of ``(c_i, U_i, V_i)`` whose
first term carries the current rank-r iterate, :func:`lorsum` refines
that anchor pair ``(U1, V1)`` toward the best rank-r approximation of
the target.  The sum is one thin product of stacked factors, so each
half-step is one such product and one r x r symmetric solve:

    V <- (lam * V1 + [c_i Dv^-1 V_i] [U_i]^T U) (U^T Du U + lam I)^-1
    U <- (lam * U1 + [c_i Du^-1 U_i] [V_i]^T V) (V^T Dv V + lam I)^-1

where ``[.]`` stacks blocks side by side, the anchor block (i = 1) is
never metric-scaled, ``lam`` is the proximal weight pulling both factors
toward the anchor, and ``Du`` / ``Dv`` are damped low-rank metrics
applied through the Woodbury identity (Euclidean when absent).  The two
half-steps are one routine applied to either side.  Work per call is
O(K * max(d_out, d_in) * sum_i k_i * r) and no full-size matrix is ever
formed.

:func:`lorsum` checks its term factors once on entry and :class:`Metric`
each metric factor and its damping; everything after that calls
``matcore``'s unchecked cores.  Each system is tested for finiteness
before its solve (see ``matcore``'s validation contract).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeError, SingularMetricError
from .lowrank import FactorPair
from .matcore import _all_finite, _cholesky_solve, _gram, _product, as_matrix

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


def _check_rows(m: Metric, x):
    if m is not None and m.factor.shape[0] != x.shape[0]:
        raise ShapeError(
            f"metric dimension {m.factor.shape[0]} does not match "
            f"rows {x.shape[0]}")


def _inverse_metric(m: Metric, x) -> np.ndarray:
    """``(F F^T + delta I)^{-1} x`` via Woodbury (thin solves only) for a
    checked ``x``; ``None`` returns ``x`` itself.  Tests the small system
    for finiteness, not ``x``."""
    if m is None:
        return x
    f = m.factor
    y = _product(f.T, x)
    small = _gram(f) / m.delta + np.eye(f.shape[1])
    if not (_all_finite(small) and _all_finite(y)):
        raise NonFiniteError("the inverse metric's system holds "
                             "non-finite entries")
    z = _cholesky_solve(small, y)
    return (x - _product(f, z) / m.delta) / m.delta


def _metric_gram(m: Metric, x) -> np.ndarray:
    """``x^T (F F^T + delta I) x`` using thin products only, for a
    checked ``x`` with as many rows as the metric; symmetric PSD."""
    if m is None:
        return _gram(x)
    out = m.delta * _gram(x) + _gram(_product(m.factor.T, x))
    return (out + out.T) / 2.0


def _note(trace, side, iteration, cur_u, cur_v):
    if trace is not None:
        trace.append({
            "side": side,
            "iteration": iteration,
            "u": cur_u.copy(),
            "v": cur_v.copy(),
        })


def _half_step(side, other, k, lam_eye):
    """Solve for one factor given the other side's current estimate.

    ``side`` is ``(name, pull, outs, ins, metric)``: ``lam`` times this
    side's anchor factor, its stacked weighted (metric-scaled) term
    factors, the other side's stacked term factors, and the metric of
    the other side's Gram.  ``lam_eye`` is ``lam * I`` at the rank.
    ``den`` is symmetric by construction, so only its finiteness is
    tested.
    """
    name, pull, outs, ins, metric = side
    num = _product(outs, _product(ins.T, other)) + pull
    den = _metric_gram(metric, other) + lam_eye
    if not (_all_finite(num) and _all_finite(den)):
        raise NonFiniteError(f"non-finite system on the {name} side at "
                             f"iteration {k}")
    try:
        return _cholesky_solve(den, num.T).T
    except SingularMetricError as exc:
        raise SingularMetricError(
            f"singular system on the {name} side at iteration {k}: {exc}",
            pivot_index=exc.pivot_index, side=name, iteration=k) from exc


def _checked_terms(terms) -> list:
    """``terms`` as ``(float, matrix, matrix)`` triples, each checked once.

    Term widths k_i may differ; all terms must share d_out and d_in.
    """
    if not terms:
        raise ShapeError("a weighted factor sum needs at least one term")
    clean = []
    for i, (c, left, right) in enumerate(terms):
        c = float(c)
        if not np.isfinite(c):
            raise ShapeError(f"term {i} has a non-finite coefficient")
        left = as_matrix(left, f"terms[{i}].left")
        right = as_matrix(right, f"terms[{i}].right")
        if left.shape[1] != right.shape[1]:
            raise ShapeError(
                f"term {i} widths disagree: {left.shape} vs {right.shape}")
        if clean and (left.shape[0] != clean[0][1].shape[0]
                      or right.shape[0] != clean[0][2].shape[0]):
            raise ShapeError(f"term {i} dimensions disagree with term 0")
        clean.append((c, left, right))
    return clean


def lorsum(terms, num_iters: int = 1, lam: float = 0.0,
           mode: str = "alternating", metric_u: Metric = None,
           metric_v: Metric = None, trace: list = None) -> FactorPair:
    """Approximate ``sum_i c_i left_i right_i^T`` by a rank-r pair.

    ``terms`` is a non-empty sequence of ``(c, left, right)``.  The
    factors of ``terms[0]`` are the anchor: they supply both the
    starting estimate and the proximal pull of weight ``lam``, which is
    taken as already scaled (callers fold in any learning-rate factor).
    ``alternating`` updates the input-side factor V and then U from the
    new V; ``simultaneous`` computes both half-updates from the same
    estimates before committing either.  Raises
    :class:`SingularMetricError` naming the updated side and iteration
    when an r x r system is not positive definite (a degenerate anchor
    needs ``lam > 0`` or metric damping to be rescued), and
    :class:`NonFiniteError` naming them when it holds a NaN or inf.
    """
    if num_iters < 1:
        raise ShapeError("num_iters must be at least 1")
    if not lam >= 0:
        raise ShapeError("the proximal weight lam must be nonnegative")
    if mode not in MODES:
        raise ShapeError(f"mode must be one of {MODES}")
    terms = _checked_terms(terms)
    c0, left0, right0 = terms[0]
    rank, min_dim = left0.shape[1], min(left0.shape[0], right0.shape[0])
    if rank > min_dim:
        raise ShapeError(f"rank {rank} exceeds min dimension {min_dim}")
    _check_rows(metric_u, left0)
    _check_rows(metric_v, right0)

    # The inverse-metric scaling of non-anchor terms does not depend on
    # the evolving estimates, so each side's blocks are stacked once.
    rest = terms[1:]
    outs_u = [c0 * left0] + [c * _inverse_metric(metric_u, left)
                             for c, left, _ in rest]
    outs_v = [c0 * right0] + [c * _inverse_metric(metric_v, right)
                              for c, _, right in rest]
    lefts = np.hstack([left for _, left, _ in terms])
    rights = np.hstack([right for _, _, right in terms])
    u_side = ("U", lam * left0, np.hstack(outs_u), rights, metric_v)
    v_side = ("V", lam * right0, np.hstack(outs_v), lefts, metric_u)

    lam_eye = lam * np.eye(rank)
    cur_u, cur_v = left0, right0
    for k in range(num_iters):
        if mode == "simultaneous":
            cur_u, cur_v = (_half_step(u_side, cur_v, k, lam_eye),
                            _half_step(v_side, cur_u, k, lam_eye))
            _note(trace, "UV", k, cur_u, cur_v)
        else:
            cur_v = _half_step(v_side, cur_u, k, lam_eye)
            _note(trace, "V", k, cur_u, cur_v)
            cur_u = _half_step(u_side, cur_v, k, lam_eye)
            _note(trace, "U", k, cur_u, cur_v)
    return FactorPair(cur_u, cur_v)
