"""The benchmarked methods, each registered once.

A row holds what is method-specific about one layer.
``init(cfg, eta, seed, layer)`` returns the layer to train and its
state; ``step(cfg, eta, layer, state)`` is one ``optim.*_step`` call,
which reads the captures the task's pass left on the layer, updates
the layer and the state, and clears the captures.  The dense baselines
keep only their dense momentum as the state; svdlora's iterate is the
layer's adapter, and the full baseline's layer is its dense weight
under an empty adapter, which ``optim.full_step`` updates in place.

Steps call ``optim`` through the module attribute at call time, so that
wrappers put on the module (the benchmark's timing and tracing) see
every call.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import nets, optim
from ..lowrank import FactorPair
from ..matcore import matmul


@dataclass(frozen=True)
class Method:
    init: Callable
    step: Callable


def _like(state_type):
    return lambda cfg, eta, seed, layer: (layer, state_type.like(layer.adapter))


def _oplora_init(cfg, eta, seed, layer):
    hyper = optim.OploraConfig(
        eta=eta, alpha=cfg.alpha, lam=cfg.lam, beta=cfg.beta,
        delta=cfg.delta, num_iters=cfg.k, momentum_rank=cfg.momentum_rank,
        metric_rank=cfg.metric_rank)
    return layer, optim.OploraState(hyper, init_seed=seed)


def _full_init(cfg, eta, seed, layer):
    w = matmul(layer.adapter.u, layer.adapter.v.T)
    if layer.w0 is not None:
        w = layer.w0 + w
    empty = FactorPair(layer.adapter.u[:, :0], layer.adapter.v[:, :0])
    return nets.LoraLinear(w, empty), np.zeros_like(w)


_OPLORA = Method(_oplora_init, lambda cfg, eta, layer, state:
                 optim.oplora_step(layer, state))

METHODS = {
    "lora_sgd": Method(_like(optim.SgdState), lambda cfg, eta, layer, state:
                       optim.sgd_step(layer, state, eta, cfg.alpha)),
    "lora_adamw": Method(_like(optim.AdamwState),
                         lambda cfg, eta, layer, state:
                         optim.adamw_step(layer, state, eta)),
    "prec_lora": Method(lambda cfg, eta, seed, layer: (layer, None),
                        lambda cfg, eta, layer, state:
                        optim.prec_lora_step(layer, eta, cfg.lam)),
    "oplora": _OPLORA,
    "oplora_proj": Method(_like(optim.ProjMomentumState),
                          lambda cfg, eta, layer, state:
                          optim.proj_lora_step(layer, state, eta, cfg.alpha,
                                               cfg.lam)),
    "oplora_scaled": _OPLORA,
    "svdlora": Method(lambda cfg, eta, seed, layer:
                      (layer, np.zeros((layer.adapter.d_out,
                                        layer.adapter.d_in))),
                      lambda cfg, eta, layer, state:
                      optim.svdlora_step(layer, state, eta, cfg.alpha)),
    "full": Method(_full_init, lambda cfg, eta, layer, state:
                   optim.full_step(layer, layer.w0, state, eta, cfg.alpha)),
}
