"""Alternating least-squares compression of weighted low-rank sums.

Given a rank-r anchor pair ``(U1, V1)`` and a target expressed as a
weighted sum of thin products ``sum_i c_i U_i V_i^T`` (whose first term
is the anchor's own product), :func:`lorsum` refines the pair toward the
best rank-r approximation of the target.  The sum is one thin product
of stacked factors, so each half-step is one such product and one r x r
symmetric solve:

    V <- (lam * V1 + [c_i Dv^-1 V_i] [U_i]^T U) (U^T Du U + lam I)^-1
    U <- (lam * U1 + [c_i Du^-1 U_i] [V_i]^T V) (V^T Dv V + lam I)^-1

where ``[.]`` stacks blocks side by side, the anchor block (i = 1) is
never metric-scaled, ``lam`` is the proximal weight pulling both factors
toward the anchor, and ``Du`` / ``Dv`` are damped low-rank metrics
applied through the Woodbury identity (Euclidean when absent).  The two
half-steps are one routine applied to either side.  Work per call is
O(K * max(d_out, d_in) * sum_i k_i * r) and no full-size matrix is ever
formed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SingularMetricError
from .lowrank import FactorPair, WeightedFactorSum, gram
from .matcore import as_matrix, matmul, solve_spd

MODES = ("alternating", "simultaneous")


@dataclass(frozen=True)
class Metric:
    """A damped symmetric PSD scale ``factor @ factor.T + delta I``.

    Wherever a metric is optional, ``None`` stands for the Euclidean
    metric.
    """

    factor: np.ndarray
    delta: float = 0.0

    def __post_init__(self):
        if self.delta < 0:
            raise ShapeError("metric damping must be nonnegative")
        object.__setattr__(
            self, "factor", as_matrix(self.factor, "metric factor"))
        if self.factor.shape[1] == 0:
            raise ShapeError("a metric factor needs at least one column")


def _check_rows(m: Metric, x):
    if m.factor.shape[0] != x.shape[0]:
        raise ShapeError(
            f"metric dimension {m.factor.shape[0]} does not match "
            f"rows {x.shape[0]}")


def apply_inverse_metric(m: Metric, x) -> np.ndarray:
    """``(F F^T + delta I)^{-1} x`` via Woodbury; only thin solves occur.

    ``None`` returns ``x`` unchanged (possibly the same array).  A metric
    requires ``delta > 0``: the low-rank part alone is never invertible.
    """
    x = as_matrix(x, "x")
    if m is None:
        return x
    if m.delta <= 0.0:
        raise SingularMetricError(
            "damped low-rank metric needs delta > 0 to be invertible")
    _check_rows(m, x)
    f = m.factor
    y = matmul(f, x, transpose_a=True)
    small = gram(f) / m.delta + np.eye(f.shape[1])
    z = solve_spd(small, y)
    return (x - matmul(f, z) / m.delta) / m.delta


def apply_metric_gram(m: Metric, x) -> np.ndarray:
    """``x^T (F F^T + delta I) x`` using thin products only; symmetric PSD."""
    x = as_matrix(x, "x")
    if m is None:
        return gram(x)
    _check_rows(m, x)
    out = m.delta * gram(x) + gram(matmul(m.factor, x, transpose_a=True))
    return (out + out.T) / 2.0


@dataclass(frozen=True)
class LorsumConfig:
    """Iteration count, proximal weight, and update scheduling.

    ``lam`` pulls both factors toward the anchor and is taken as already
    scaled (callers fold in any learning-rate factor).  ``alternating``
    updates the input-side factor V and then U from the new V;
    ``simultaneous`` computes both half-updates from the same estimates
    before committing either.
    """

    num_iters: int = 1
    lam: float = 0.0
    mode: str = "alternating"

    def __post_init__(self):
        if self.num_iters < 1:
            raise ShapeError("num_iters must be at least 1")
        if self.lam < 0:
            raise ShapeError("the proximal weight must be nonnegative")
        if self.mode not in MODES:
            raise ShapeError(f"mode must be one of {MODES}")


def _note(trace, side, iteration, cur_u, cur_v):
    if trace is not None:
        trace.append({
            "side": side,
            "iteration": iteration,
            "u": cur_u.copy(),
            "v": cur_v.copy(),
        })


def _half_step(side, other, k, lam, lam_eye):
    """Solve for one factor given the other side's current estimate.

    ``side`` is ``(name, anchor, outs, ins, metric)``: this side's anchor
    factor, its stacked weighted (metric-scaled) term factors, the other
    side's stacked term factors, and the metric of the other side's Gram.
    ``lam_eye`` is ``lam * I`` at the rank, used when ``lam > 0``.
    """
    name, anchor, outs, ins, metric = side
    num = matmul(outs, matmul(ins, other, transpose_a=True))
    den = apply_metric_gram(metric, other)
    if lam > 0:
        num = num + lam * anchor
        den = den + lam_eye
    try:
        return solve_spd(den, num.T).T
    except SingularMetricError as exc:
        raise SingularMetricError(
            f"singular system on the {name} side at iteration {k}: {exc}",
            pivot_index=exc.pivot_index, side=name, iteration=k) from exc


def lorsum(anchor: FactorPair, terms: WeightedFactorSum,
           cfg: LorsumConfig = None, metric_u: Metric = None,
           metric_v: Metric = None, trace: list = None) -> FactorPair:
    """Approximate ``sum_i c_i left_i right_i^T`` by a rank-r pair.

    ``terms[0]`` must be the anchor's own product; the anchor supplies
    both the starting estimate and the proximal pull.  Raises
    :class:`SingularMetricError` naming the updated side and iteration
    when an r x r system is not positive definite (a degenerate anchor
    needs ``lam > 0`` or metric damping to be rescued).
    """
    cfg = cfg or LorsumConfig()
    if terms.d_out != anchor.d_out or terms.d_in != anchor.d_in:
        raise ShapeError(
            f"anchor {anchor.d_out} x {anchor.d_in} does not match terms "
            f"{terms.d_out} x {terms.d_in}")
    c0, left0, right0 = terms.terms[0]
    # Both sides are validated finite, so identity implies equality.
    if not ((left0 is anchor.u or np.array_equal(left0, anchor.u))
            and (right0 is anchor.v or np.array_equal(right0, anchor.v))):
        raise ShapeError("terms[0] must carry the anchor's own factors")

    # The inverse-metric scaling of non-anchor terms does not depend on
    # the evolving estimates, so each side's blocks are stacked once.
    rest = terms.terms[1:]
    outs_u = [c0 * left0] + [c * apply_inverse_metric(metric_u, left)
                             for c, left, _ in rest]
    outs_v = [c0 * right0] + [c * apply_inverse_metric(metric_v, right)
                              for c, _, right in rest]
    lefts = np.hstack([left for _, left, _ in terms])
    rights = np.hstack([right for _, _, right in terms])
    u_side = ("U", anchor.u, np.hstack(outs_u), rights, metric_v)
    v_side = ("V", anchor.v, np.hstack(outs_v), lefts, metric_u)

    lam = cfg.lam
    lam_eye = lam * np.eye(anchor.rank) if lam > 0 else None
    cur_u, cur_v = anchor.u, anchor.v
    for k in range(cfg.num_iters):
        if cfg.mode == "simultaneous":
            cur_u, cur_v = (_half_step(u_side, cur_v, k, lam, lam_eye),
                            _half_step(v_side, cur_u, k, lam, lam_eye))
            _note(trace, "UV", k, cur_u, cur_v)
        else:
            cur_v = _half_step(v_side, cur_u, k, lam, lam_eye)
            _note(trace, "V", k, cur_u, cur_v)
            cur_u = _half_step(u_side, cur_v, k, lam, lam_eye)
            _note(trace, "U", k, cur_u, cur_v)
    return FactorPair(cur_u, cur_v)
