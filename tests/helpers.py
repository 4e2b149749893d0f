"""Test-only helpers: reference losses, rank padding, naive momentum."""

import numpy as np

from oplora.errors import ShapeError
from oplora.lowrank import FactorPair, gram
from oplora.matcore import solve_spd
from oplora.nets import (LinearTask, MlpTask, _act, _loss_and_logit_grad,
                         factor_grads, linear_task_grad)
from oplora.optim import ProjMomentumState


def pad_rank(p: FactorPair, r: int, rng: np.random.Generator) -> FactorPair:
    """Widen a pair to rank ``r`` without changing its product.

    New left columns are random (so the extra rank is reachable by
    alternating updates), new right columns are zero.
    """
    extra = r - p.rank
    if extra < 0:
        raise ShapeError(f"cannot pad rank {p.rank} down to {r}")
    if extra == 0:
        return p.copy()
    scale = float(np.linalg.norm(p.u) / np.sqrt(p.u.size)) or 1.0
    u_pad = scale * rng.standard_normal((p.d_out, extra))
    v_pad = np.zeros((p.d_in, extra))
    return FactorPair(np.hstack([p.u, u_pad]), np.hstack([p.v, v_pad]))


def linear_task_loss(task: LinearTask, adapter: FactorPair,
                     indices=None) -> float:
    if indices is None:
        indices = np.arange(task.d_in)
    _, _, loss = linear_task_grad(task, adapter, indices)
    return loss


def mlp_loss(task: MlpTask, layers, x, y) -> float:
    """Forward-only batch loss of the MLP task."""
    logits = x
    for layer in layers[:-1]:
        logits = _act(task, layer.forward(logits))
    logits = layers[-1].forward(logits)
    return _loss_and_logit_grad(task, logits, y)[0]


def momentum_update_naive(state: ProjMomentumState, layer,
                          alpha: float, lam: float = 0.0):
    """Accumulate preconditioned factor gradients without re-projection:

        M_u <- G_u (V^T V + lam I)^-1 + alpha M_u   (and the V analog).
    """
    g_u, g_v = factor_grads(layer)
    u, v = layer.adapter.u, layer.adapter.v
    eye = np.eye(layer.adapter.rank)
    pre_u = solve_spd(gram(v) + lam * eye, g_u.T).T
    pre_v = solve_spd(gram(u) + lam * eye, g_v.T).T
    state.momentum_u = pre_u + alpha * state.momentum_u
    state.momentum_v = pre_v + alpha * state.momentum_v
    state.prev_u = u.copy()
    state.prev_v = v.copy()
    return state.momentum_u, state.momentum_v
