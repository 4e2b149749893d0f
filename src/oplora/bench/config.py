"""Experiment configuration: one strictly-validated JSON document.

Unknown keys are rejected at every level so typos fail fast.  The
schema is versioned via ``schema_version``; see the README for the full
field reference.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigError
from .methods import METHODS

SCHEMA_VERSION = 1

TASK_KINDS = ("linear", "mlp")
INITS = ("random", "svd")


def _is(x, kind) -> bool:
    """isinstance; a float field takes an int, only a bool field a bool."""
    return (isinstance(x, (int, float) if kind is float else kind)
            and (kind is bool or not isinstance(x, bool)))


def _take(d, key, default=..., required=False, kind=None, scope=""):
    name = f"{scope}.{key}" if scope else key
    if key not in d:
        if required:
            raise ConfigError(f"missing required field {name!r}", field=name)
        return default
    val = d.pop(key)
    # null is only allowed where the field's default is None
    if kind is not None and not (val is None and default is None):
        _check(_is(val, kind), f"{name} must be {kind.__name__}, got {val!r}",
               name)
    return val


def _reject_unknown(d, scope):
    if d:
        key = sorted(d)[0]
        name = f"{scope}.{key}" if scope else key
        raise ConfigError(f"unknown field {name!r}", field=name)


def _check(cond, msg, fieldname):
    if not cond:
        raise ConfigError(msg, field=fieldname)


def is_125_grid_value(x) -> bool:
    """True when x equals m * 10^e for a mantissa m in {1, 2, 5}."""
    if not (_is(x, float) and math.isfinite(x) and x > 0):
        return False
    e = math.floor(math.log10(x) + 1e-12)
    for mant in (1.0, 2.0, 5.0):
        for exp in (e - 1, e, e + 1):
            if math.isclose(x, mant * 10.0 ** exp, rel_tol=1e-9):
                return True
    return False


@dataclass
class TaskSpec:
    kind: str = "linear"
    # linear task
    d_out: int = 120
    d_in: int = 40
    singular_values: Optional[list] = None
    init: str = "random"
    # mlp task
    dims: Optional[list] = None
    nonlinearity: str = "relu"
    loss: str = "mse"
    n_samples: int = 256
    # shared
    seed: int = 0

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        kind = _take(d, "kind", required=True, scope="task")
        _check(kind in TASK_KINDS, f"task.kind must be one of {TASK_KINDS}",
               "task.kind")
        spec = cls(kind=kind)
        spec.seed = _take(d, "seed", 0, kind=int, scope="task")
        if kind == "linear":
            spec.d_out = _take(d, "d_out", 120, kind=int, scope="task")
            spec.d_in = _take(d, "d_in", 40, kind=int, scope="task")
            _check(spec.d_out >= 1 and spec.d_in >= 1,
                   "task dimensions must be positive", "task.d_out")
            sv = _take(d, "singular_values", None)
            if sv is not None:
                _check(isinstance(sv, list) and all(_is(s, float) for s in sv),
                       "task.singular_values must list numbers",
                       "task.singular_values")
                sv = [float(s) for s in sv]
                _check(len(sv) <= min(spec.d_out, spec.d_in),
                       "too many singular values", "task.singular_values")
            spec.singular_values = sv
            spec.init = _take(d, "init", "random")
            _check(spec.init in INITS, f"task.init must be one of {INITS}",
                   "task.init")
        else:
            dims = _take(d, "dims", required=True, scope="task")
            _check(isinstance(dims, list) and len(dims) >= 2
                   and all(_is(x, int) and x >= 1 for x in dims),
                   "task.dims must list at least two positive ints",
                   "task.dims")
            spec.dims = dims
            spec.nonlinearity = _take(d, "nonlinearity", "relu")
            _check(spec.nonlinearity in ("relu", "tanh"),
                   "task.nonlinearity must be relu or tanh",
                   "task.nonlinearity")
            spec.loss = _take(d, "loss", "mse")
            _check(spec.loss in ("mse", "cross_entropy"),
                   "task.loss must be mse or cross_entropy", "task.loss")
            spec.n_samples = _take(d, "n_samples", 256, kind=int,
                                   scope="task")
            _check(spec.n_samples >= 1, "task.n_samples must be positive",
                   "task.n_samples")
        _reject_unknown(d, "task")
        return spec

    def to_dict(self):
        out = {"kind": self.kind, "seed": self.seed}
        if self.kind == "linear":
            out.update(d_out=self.d_out, d_in=self.d_in, init=self.init)
            if self.singular_values is not None:
                out["singular_values"] = list(self.singular_values)
        else:
            out.update(dims=list(self.dims), nonlinearity=self.nonlinearity,
                       loss=self.loss, n_samples=self.n_samples)
        return out


@dataclass
class BatchSpec:
    mode: str = "full"
    size: Optional[int] = None

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        mode = _take(d, "mode", required=True, scope="batch")
        _check(mode in ("full", "minibatch"),
               "batch.mode must be full or minibatch", "batch.mode")
        size = _take(d, "size", None)
        if mode == "minibatch":
            _check(_is(size, int) and size >= 1,
                   "batch.size must be a positive int", "batch.size")
        else:
            _check(size is None, "batch.size is only valid for minibatch",
                   "batch.size")
        _reject_unknown(d, "batch")
        return cls(mode=mode, size=size)

    def to_dict(self):
        out = {"mode": self.mode}
        if self.size is not None:
            out["size"] = self.size
        return out


@dataclass
class ExperimentConfig:
    task: TaskSpec
    method: str
    rank: int = 8
    k: int = 1
    eta: Optional[float] = None
    eta_grid: Optional[list] = None
    alpha: float = 0.0
    lam: float = 1e-3
    beta: float = 1.0
    delta: float = 1e-4
    momentum_rank: Optional[int] = None
    metric_rank: Optional[int] = None
    steps: int = 200
    seeds: list = field(default_factory=lambda: [0])
    batch: BatchSpec = field(default_factory=BatchSpec)
    out_dir: str = "runs"
    record_factors: bool = True
    timing: bool = True

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        version = _take(d, "schema_version", required=True)
        _check(_is(version, int) and version == SCHEMA_VERSION,
               f"unsupported schema_version {version!r}", "schema_version")
        task = TaskSpec.from_dict(_take(d, "task", required=True, kind=dict))
        method = _take(d, "method", required=True, kind=str)
        _check(method in METHODS,
               f"method must be one of {tuple(METHODS)}", "method")
        cfg = cls(task=task, method=method)
        cfg.rank = _take(d, "rank", 8, kind=int)
        cfg.k = _take(d, "k", 1, kind=int)
        cfg.eta = _take(d, "eta", None, kind=float)
        cfg.eta_grid = _take(d, "eta_grid", None)
        cfg.alpha = float(_take(d, "alpha", 0.0, kind=float))
        cfg.lam = float(_take(d, "lambda", 1e-3, kind=float))
        cfg.beta = float(_take(d, "beta", 1.0, kind=float))
        cfg.delta = float(_take(d, "delta", 1e-4, kind=float))
        cfg.momentum_rank = _take(d, "momentum_rank", None, kind=int)
        cfg.metric_rank = _take(d, "metric_rank", None, kind=int)
        cfg.steps = _take(d, "steps", 200, kind=int)
        cfg.seeds = _take(d, "seeds", [0])
        batch = _take(d, "batch", None, kind=dict)
        cfg.batch = BatchSpec() if batch is None else BatchSpec.from_dict(batch)
        cfg.out_dir = _take(d, "out_dir", "runs", kind=str)
        cfg.record_factors = _take(d, "record_factors", True, kind=bool)
        cfg.timing = _take(d, "timing", True, kind=bool)
        _reject_unknown(d, "")
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(doc)

    def validate(self):
        _check(self.rank >= 1, "rank must be positive", "rank")
        _check(self.k >= 1, "k must be at least 1", "k")
        for name in ("momentum_rank", "metric_rank"):
            _check(getattr(self, name) is None or getattr(self, name) >= 1,
                   f"{name} must be positive", name)
        _check((self.eta is None) != (self.eta_grid is None),
               "exactly one of eta and eta_grid is required", "eta")
        if self.eta is not None:
            _check(math.isfinite(self.eta) and self.eta > 0,
                   "eta must be positive and finite", "eta")
        if self.eta_grid is not None:
            _check(isinstance(self.eta_grid, list) and self.eta_grid,
                   "eta_grid must be a nonempty list", "eta_grid")
            for x in self.eta_grid:
                _check(is_125_grid_value(x),
                       f"eta_grid value {x!r} is not of the form "
                       "{1,2,5} * 10^-k", "eta_grid")
        _check(0.0 <= self.alpha < 1.0, "alpha must lie in [0, 1)", "alpha")
        _check(self.lam >= 0.0, "lambda must be nonnegative", "lambda")
        _check(0.0 < self.beta <= 1.0, "beta must lie in (0, 1]", "beta")
        _check(self.delta >= 0.0, "delta must be nonnegative", "delta")
        _check(self.steps >= 1, "steps must be positive", "steps")
        _check(isinstance(self.seeds, list) and self.seeds
               and all(_is(s, int) for s in self.seeds),
               "seeds must be a nonempty list of ints", "seeds")
        _check(len(set(self.seeds)) == len(self.seeds),
               "seeds must be distinct", "seeds")
        if self.method == "oplora_scaled":
            _check(self.beta < 1.0, "oplora_scaled requires beta < 1",
                   "beta")
        if self.task.kind == "linear":
            _check(self.rank <= min(self.task.d_out, self.task.d_in),
                   "rank exceeds task dimensions", "rank")
            if self.batch.mode == "minibatch":
                _check(self.batch.size <= self.task.d_in,
                       "batch size exceeds column count", "batch.size")
        else:
            if self.batch.mode == "minibatch":
                _check(self.batch.size <= self.task.n_samples,
                       "batch size exceeds sample count", "batch.size")
            _check(self.task.init == "random" or self.task.kind == "linear",
                   "svd init is only defined for the linear task",
                   "task.init")

    def etas(self):
        return [self.eta] if self.eta is not None else list(self.eta_grid)

    def to_dict(self):
        out = {
            "schema_version": SCHEMA_VERSION,
            "task": self.task.to_dict(),
            "method": self.method,
            "rank": self.rank,
            "k": self.k,
            "alpha": self.alpha,
            "lambda": self.lam,
            "beta": self.beta,
            "delta": self.delta,
            "steps": self.steps,
            "seeds": list(self.seeds),
            "batch": self.batch.to_dict(),
            "out_dir": self.out_dir,
            "record_factors": self.record_factors,
            "timing": self.timing,
        }
        if self.eta is not None:
            out["eta"] = self.eta
        if self.eta_grid is not None:
            out["eta_grid"] = list(self.eta_grid)
        if self.momentum_rank is not None:
            out["momentum_rank"] = self.momentum_rank
        if self.metric_rank is not None:
            out["metric_rank"] = self.metric_rank
        return out
