"""The benchmarked methods, each registered once.

A row holds what is method-specific about one layer.
``init(cfg, eta, seed, layer)`` returns the layer to train and its
state; ``step(cfg, eta, layer, state, grad)`` updates them, from the
dense gradient ``grad`` when the task supplies one, else from the
layer's captures.  ``dense``: the iterate is ``state.dense_weight``.
``low_rank``: the iterate stays rank r, so it has a factor trail.

Steps call ``optim`` through the module attribute at call time, so that
wrappers put on the module (the benchmark's timing and tracing) see
every call.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import nets, optim
from ..matcore import matmul


@dataclass(frozen=True)
class Method:
    init: Callable
    step: Callable
    dense: bool = False
    low_rank: bool = True


def _like(state_type):
    return lambda cfg, eta, seed, layer: (layer, state_type.like(layer.adapter))


def _oplora_init(cfg, eta, seed, layer):
    hyper = optim.OploraConfig(
        eta=eta, alpha=cfg.alpha, lam=cfg.lam, beta=cfg.beta,
        delta=cfg.delta, num_iters=cfg.k, momentum_rank=cfg.momentum_rank,
        metric_rank=cfg.metric_rank)
    return layer, optim.OploraState(hyper, init_seed=seed)


def _sgd_step(cfg, eta, layer, state, grad):
    grads = nets.factor_grads(layer, consume=True)
    layer.adapter = optim.sgd_step(layer.adapter, grads, eta, cfg.alpha, state)


def _adamw_step(cfg, eta, layer, state, grad):
    grads = nets.factor_grads(layer, consume=True)
    layer.adapter = optim.adamw_step(layer.adapter, grads, eta, state=state)


def _svdlora_step(cfg, eta, layer, state, grad):
    if grad is None:  # the full gradient S^T X is materialized
        grad = matmul(layer.captured_s, layer.captured_x, transpose_a=True)
    layer.adapter = optim.svdlora_step(state, grad, eta, cfg.alpha, cfg.rank)
    layer.clear_captures()


def _full_init(cfg, eta, seed, layer):
    w = layer.adapter.u @ layer.adapter.v.T
    if layer.w0 is not None:
        w = layer.w0 + w
    return nets.DenseLinear(w), optim.SvdLoraState(w, np.zeros_like(w))


def _full_step(cfg, eta, layer, state, grad):
    if grad is None:
        grad = layer.weight_grad()
    state.dense_momentum = cfg.alpha * state.dense_momentum + grad
    state.dense_weight = layer.w = layer.w - eta * state.dense_momentum
    layer.clear_captures()


_OPLORA = Method(_oplora_init, lambda cfg, eta, layer, state, grad:
                 optim.oplora_step(layer, state))

METHODS = {
    "lora_sgd": Method(_like(optim.SgdState), _sgd_step),
    "lora_adamw": Method(_like(optim.AdamwState), _adamw_step),
    "prec_lora": Method(lambda cfg, eta, seed, layer: (layer, None),
                        lambda cfg, eta, layer, state, grad:
                        optim.prec_lora_step(layer, eta, cfg.lam)),
    "oplora": _OPLORA,
    "oplora_proj": Method(_like(optim.ProjMomentumState),
                          lambda cfg, eta, layer, state, grad:
                          optim.proj_lora_step(layer, state, eta, cfg.alpha,
                                               cfg.lam)),
    "oplora_scaled": _OPLORA,
    "svdlora": Method(lambda cfg, eta, seed, layer:
                      (layer, optim.SvdLoraState.from_pair(layer.adapter)),
                      _svdlora_step, dense=True),
    "full": Method(_full_init, _full_step, dense=True, low_rank=False),
}
