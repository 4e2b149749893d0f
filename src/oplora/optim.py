"""Optimizer step rules over low-rank-adapted layers.

The main step refines the adapter toward the rank-r least-squares
solution of the proximal sub-problem built from the captured batch
input X and output gradient S (so the full gradient S^T X is only ever
handled as a thin pair, built once per step from the captures the pass
checked).  Momentum is kept as a separate low-rank pair
refreshed by the same alternating subroutine; an optional pair of
damped low-rank metrics tracks running averages of X^T X / B and
S^T S / B as non-Euclidean scales, refreshed by it too from pairs of
each metric's factor and the captured batch.

Baselines: the one-step preconditioned factor update, heavy-ball SGD
and AdamW on the factors, projected factor momentum, and the
dense projection oracle that takes a full step and truncates back to
rank r by SVD.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, ShapeError
from .lowrank import FactorPair, _unchecked_pair, truncated_svd
from .lorsum import Metric, check_count, lorsum
from .matcore import gram, matmul, solve_spd, thin_qr
from .nets import add_weight_grad, captures, factor_grads, seeded_stream

# Tiny proximal weight that keeps the r x r systems positive definite
# when momentum or metric factors are rank-deficient (e.g. right after
# their zero-product initialization).  Deliberately well above the
# Cholesky pivot tolerance and far below any tracking tolerance.
RESCUE_LAMBDA = 1e-9


@dataclass
class OploraConfig:
    """Hyperparameters of the alternating-update optimizer.

    ``lam`` is the proximal weight of the weight sub-problem; the step
    multiplies it by ``eta`` before handing it to the subroutine.
    ``beta == 1`` disables metric scaling entirely.  A rank left at
    ``None`` is the adapter's rank.
    """

    eta: float
    alpha: float = 0.0
    lam: float = 1e-3
    beta: float = 1.0
    delta: float = 1e-4
    num_iters: int = 1
    momentum_rank: Optional[int] = None
    metric_rank: Optional[int] = None
    mode: str = "alternating"

    def __post_init__(self):
        if not 0.0 < self.eta < np.inf:
            raise ShapeError("step size eta must be positive and finite")
        if not 0.0 <= self.alpha < 1.0:
            raise ShapeError("momentum coefficient must lie in [0, 1)")
        if not 0.0 < self.beta <= 1.0:
            raise ShapeError("scale smoothing must lie in (0, 1]")
        for name in ("lam", "delta"):
            if not getattr(self, name) >= 0:
                raise ShapeError(f"{name} must be nonnegative")
        if self.beta < 1.0 and not self.delta > 0:
            raise ShapeError("delta must be positive when beta < 1")
        check_count(self.num_iters, "num_iters")
        for name in ("momentum_rank", "metric_rank"):
            if getattr(self, name) is not None:
                check_count(getattr(self, name), name)


@dataclass
class OploraState:
    """Per-layer optimizer state; mutated only by a successful step.

    The metrics stay ``None`` (Euclidean) until the first scaled step.
    """

    hyper: OploraConfig
    init_seed: int = 0
    momentum: Optional[FactorPair] = None
    metric_u: Optional[Metric] = None
    metric_v: Optional[Metric] = None


def _init_momentum(d_out, d_in, rank, seed) -> FactorPair:
    # Random left factor, zero right factor: the product is exactly zero
    # but the left subspace is full rank, so the first alternating
    # update can move out of the degenerate start.
    rng = seeded_stream(seed, 11)
    return FactorPair(rng.standard_normal((d_out, rank)),
                      np.zeros((d_in, rank)))


def _init_metric(dim, rank, delta, seed, tag) -> Metric:
    # Orthonormal factor, so the low-rank part starts as a projector
    # QQ^T; delta supplies the remaining mass of the identity.
    rng = seeded_stream(seed, tag)
    q, _ = thin_qr(rng.standard_normal((dim, rank)))
    return Metric(q, delta)


def _sym_psd_factor(u, v, rank) -> np.ndarray:
    """Best rank-``rank`` PSD factor of the symmetric part of u v^T.

    Works in the joint column space of (u, v): a reduced QR followed by
    a 2m x 2m symmetric eigendecomposition.  Negative eigenvalues are
    clipped to zero, keeping the representation PSD with equal factors.
    """
    z = np.hstack([u, v])
    m = u.shape[1]
    try:
        q, r = np.linalg.qr(z, mode="reduced")
        a = 0.5 * (r[:, :m] @ r[:, m:].T + r[:, m:] @ r[:, :m].T)
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"symmetric PSD factor failed to converge: {exc}") from exc
    top = np.clip(vals[-rank:], 0.0, None)
    return q @ (vecs[:, -rank:] * np.sqrt(top))


def _metric_ema(metric: Metric, batch, beta, num_iters) -> Metric:
    """Move the metric toward the batch second moment.

    Tracks ``beta * D + (1 - beta) * batch^T batch / B`` with the same
    alternating subroutine used everywhere else, then re-symmetrizes so
    both metric factors stay equal.  Both terms are pairs built
    unchecked: the metric's factor, which :class:`Metric` checked, and
    the batch, which the pass checked.
    """
    b = batch.shape[0]
    f = metric.factor
    terms = [(beta, _unchecked_pair(f, f)),
             ((1.0 - beta) / b, _unchecked_pair(batch.T, batch.T))]
    est = lorsum(terms, num_iters=num_iters, lam=RESCUE_LAMBDA)
    factor = _sym_psd_factor(est.u, est.v, f.shape[1])
    return Metric(factor, metric.delta)


def kfac_scale_update(state: OploraState, x_batch, s_batch, beta):
    """EMA-update both metrics from a captured batch with ``beta < 1``.

    Takes the state's built metrics and the pass's checked captures as
    they are, and returns the updated ``(metric_u, metric_v)`` without
    touching the state.
    """
    if x_batch.shape[0] == 0 or s_batch.shape[0] == 0:
        raise ShapeError("metric update needs a nonempty batch")
    k = state.hyper.num_iters
    metric_u = _metric_ema(state.metric_u, s_batch, beta, k)
    metric_v = _metric_ema(state.metric_v, x_batch, beta, k)
    return metric_u, metric_v


def momentum_update_lor(state: OploraState, momentum: FactorPair,
                        *grad) -> FactorPair:
    """Refresh the low-rank momentum pair toward alpha * M + G.

    ``grad`` is the body of a ``lorsum`` term for the thin gradient:
    ``(left, right)``, checked there, or ``(pair,)``, a pair taken as
    checked.  A tiny rescue weight keeps the solves positive definite
    while the buffer is still rank-deficient.
    """
    h = state.hyper
    terms = [(h.alpha, momentum), (1.0, *grad)]
    return lorsum(terms, num_iters=h.num_iters, lam=RESCUE_LAMBDA)


def oplora_step(layer, state: OploraState) -> FactorPair:
    """One alternating-update step on a captured layer.

    The weight update passes the full unprojected momentum step
    ``U V^T - eta G - eta alpha M`` to the subroutine (three thin
    terms); the momentum buffer is then refreshed separately.  State and
    layer are only mutated once everything has succeeded.  Every
    ``lorsum`` call, the metric EMA's included, takes only ``(c, pair)``
    terms, so the step checks no array again (see ``matcore``'s
    validation contract); the captured gradient ``(S^T, X^T)`` is one
    pair, built once for the weight and momentum calls.
    """
    x, s = captures(layer)
    grad = _unchecked_pair(s.T, x.T)
    h = state.hyper
    adapter = layer.adapter
    d_out, d_in = adapter.d_out, adapter.d_in

    metric_u, metric_v = state.metric_u, state.metric_v
    if h.beta < 1.0:
        m_rank = h.metric_rank or adapter.rank
        if metric_u is None:
            metric_u = _init_metric(d_out, m_rank, h.delta, state.init_seed, 21)
            metric_v = _init_metric(d_in, m_rank, h.delta, state.init_seed, 22)
        else:
            metric_u, metric_v = kfac_scale_update(state, x, s, h.beta)

    momentum = state.momentum
    if h.alpha > 0.0 and momentum is None:
        momentum = _init_momentum(d_out, d_in,
                                  h.momentum_rank or adapter.rank,
                                  state.init_seed)

    terms = [(1.0, adapter), (-h.eta, grad)]
    if h.alpha > 0.0:
        terms.append((-h.eta * h.alpha, momentum))
    new_pair = lorsum(terms, num_iters=h.num_iters, lam=h.lam * h.eta,
                      mode=h.mode, metric_u=metric_u, metric_v=metric_v)

    new_momentum = momentum
    if h.alpha > 0.0:
        new_momentum = momentum_update_lor(state, momentum, grad)

    state.metric_u = metric_u
    state.metric_v = metric_v
    state.momentum = new_momentum
    layer.adapter = new_pair
    layer.clear_captures()
    return new_pair


def dense_heavy_ball(layer, w: np.ndarray, momentum: np.ndarray,
                     eta: float, alpha: float) -> None:
    """Both dense baselines' heavy ball, in place on the arrays it is
    given: M <- alpha M + S^T X from the layer's captures, then
    W <- W - eta M."""
    add_weight_grad(layer, momentum, alpha)
    w -= eta * momentum


def svdlora_step(layer, momentum: np.ndarray, eta: float,
                 alpha: float) -> FactorPair:
    """A dense heavy-ball step from the adapter's U V^T, projected back
    to its rank by SVD; the momentum stays full rank."""
    pair = layer.adapter
    w = matmul(pair.u, pair.v.T)
    dense_heavy_ball(layer, w, momentum, eta, alpha)
    layer.adapter = truncated_svd(w, pair.rank)
    layer.clear_captures()
    return layer.adapter


@dataclass
class SgdState:
    momentum_u: np.ndarray
    momentum_v: np.ndarray

    @staticmethod
    def like(pair: FactorPair) -> "SgdState":
        return SgdState(np.zeros_like(pair.u), np.zeros_like(pair.v))


def sgd_step(factors: FactorPair, grads, eta: float, alpha: float,
             state: SgdState) -> FactorPair:
    """Heavy-ball SGD treating U and V as independent parameter blocks."""
    g_u, g_v = grads
    state.momentum_u = alpha * state.momentum_u + g_u
    state.momentum_v = alpha * state.momentum_v + g_v
    return FactorPair(factors.u - eta * state.momentum_u,
                      factors.v - eta * state.momentum_v)


@dataclass
class AdamwState:
    m_u: np.ndarray
    v_u: np.ndarray
    m_v: np.ndarray
    v_v: np.ndarray
    t: int = 0

    @staticmethod
    def like(pair: FactorPair) -> "AdamwState":
        return AdamwState(np.zeros_like(pair.u), np.zeros_like(pair.u),
                          np.zeros_like(pair.v), np.zeros_like(pair.v))


# AdamW's moment decays, denominator guard and decoupled weight decay
ADAMW_BETA1, ADAMW_BETA2 = 0.9, 0.999
ADAMW_EPS, ADAMW_WEIGHT_DECAY = 1e-8, 1e-2


def _adamw_block(p, g, m, v, t, eta):
    m = ADAMW_BETA1 * m + (1.0 - ADAMW_BETA1) * g
    v = ADAMW_BETA2 * v + (1.0 - ADAMW_BETA2) * g * g
    m_hat = m / (1.0 - ADAMW_BETA1 ** t)
    v_hat = v / (1.0 - ADAMW_BETA2 ** t)
    p = p * (1.0 - eta * ADAMW_WEIGHT_DECAY)
    p = p - eta * m_hat / (np.sqrt(v_hat) + ADAMW_EPS)
    return p, m, v


def adamw_step(factors: FactorPair, grads, eta: float,
               state: AdamwState) -> FactorPair:
    """AdamW with decoupled weight decay on both factors."""
    g_u, g_v = grads
    state.t += 1
    new_u, state.m_u, state.v_u = _adamw_block(
        factors.u, g_u, state.m_u, state.v_u, state.t, eta)
    new_v, state.m_v, state.v_v = _adamw_block(
        factors.v, g_v, state.m_v, state.v_v, state.t, eta)
    return FactorPair(new_u, new_v)


@dataclass
class ProjMomentumState:
    """Factor-shaped momentum plus the previous adapter it projects through."""

    momentum_u: np.ndarray
    momentum_v: np.ndarray
    prev: Optional[FactorPair] = None

    @staticmethod
    def like(pair: FactorPair) -> "ProjMomentumState":
        return ProjMomentumState(np.zeros_like(pair.u), np.zeros_like(pair.v))


def momentum_update_proj(state: ProjMomentumState, layer,
                         alpha: float, lam: float = 0.0):
    """Re-project the momentum through the current factor subspaces:

        M_u <- G_u (V^T V + lam I)^-1
               + alpha M_u (V_prev^T V) (V^T V + lam I)^-1

    and the V analog with U grams.  The current adapter is kept as the
    next step's previous one; nothing mutates a pair's factors.
    """
    num_u, num_v = factor_grads(layer)
    u, v = layer.adapter.u, layer.adapter.v
    eye = np.eye(layer.adapter.rank)
    if state.prev is not None:
        num_u = num_u + alpha * matmul(
            state.momentum_u, matmul(state.prev.v.T, v))
        num_v = num_v + alpha * matmul(
            state.momentum_v, matmul(state.prev.u.T, u))
    state.momentum_u = solve_spd(gram(v) + lam * eye, num_u.T).T
    state.momentum_v = solve_spd(gram(u) + lam * eye, num_v.T).T
    state.prev = layer.adapter
    return state.momentum_u, state.momentum_v


def proj_lora_step(layer, state: ProjMomentumState, eta: float,
                   alpha: float, lam: float = 0.0) -> FactorPair:
    """Preconditioned factor step driven by projected momentum."""
    m_u, m_v = momentum_update_proj(state, layer, alpha, lam)
    pair = FactorPair(layer.adapter.u - eta * m_u,
                      layer.adapter.v - eta * m_v)
    layer.adapter = pair
    layer.clear_captures()
    return pair


def prec_lora_step(layer, eta: float, lam: float = 0.0) -> FactorPair:
    """Closed-form preconditioned factor step.

    U <- U - eta G V (V^T V + lam I)^-1 and the V analog, both
    preconditioners evaluated at the pre-step factors: the projected
    momentum step with no momentum.
    """
    return proj_lora_step(layer, ProjMomentumState.like(layer.adapter), eta,
                          0.0, lam)
