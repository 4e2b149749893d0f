"""Experiment configuration: one strictly-validated JSON document.

Each field is declared once, in its dataclass: the annotation is its
type, the default its default (none: required), and ``key`` metadata
its JSON key where that differs from the attribute name.  One parser
and one serializer walk those declarations; range and choice checks are
code in ``from_dict``/``validate``.  Unknown keys are rejected at every
level so typos fail fast.  The schema is versioned via
``schema_version``; see the README for the full field reference.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Optional, get_args

from ..errors import ConfigError
from .methods import METHODS

SCHEMA_VERSION = 1

TASK_KINDS = ("linear", "mlp")
INITS = ("random", "svd")


def _is(x, kind) -> bool:
    """isinstance; a float field takes an int, only a bool field a bool."""
    return (isinstance(x, (int, float) if kind is float else kind)
            and (kind is bool or not isinstance(x, bool)))


def _check(cond, msg, fieldname):
    if not cond:
        raise ConfigError(msg, field=fieldname)


def _applies(f, task_kind) -> bool:
    """False for a field that only another task kind has."""
    return f.metadata.get("task", task_kind) == task_kind


def _parse(cls, doc, scope):
    """Build ``cls`` from the JSON object ``doc`` by its field declarations.

    A field without a default is required, ``null`` is accepted only where
    the default is None, values must pass :func:`_is` for the annotated
    type, float fields are stored as floats and nested dataclasses are
    built by their ``from_dict``.  Another task kind's field, like any key
    not declared, is rejected as unknown.
    """
    doc = dict(doc)
    values = {}
    for f in fields(cls):
        if not _applies(f, values.get("kind")):
            continue
        key = f.metadata.get("key", f.name)
        name = f"{scope}.{key}" if scope else key
        if key not in doc:
            _check(f.default is not MISSING
                   or f.default_factory is not MISSING,
                   f"missing required field {name!r}", name)
            continue
        val = doc.pop(key)
        if val is None and f.default is None:
            continue
        kind = next((a for a in get_args(f.type) if a is not type(None)),
                    f.type)
        want = dict if is_dataclass(kind) else kind
        _check(_is(val, want), f"{name} must be {want.__name__}, got {val!r}",
               name)
        values[f.name] = (kind.from_dict(val) if want is not kind
                          else float(val) if kind is float else val)
    if doc:
        key = sorted(doc)[0]
        name = f"{scope}.{key}" if scope else key
        raise ConfigError(f"unknown field {name!r}", field=name)
    return cls(**values)


def _serialize(obj) -> dict:
    """The JSON object of a config dataclass: its fields in declaration
    order, leaving out unset (None) ones and other task kinds' ones."""
    out = {}
    for f in fields(obj):
        val = getattr(obj, f.name)
        if val is None or not _applies(f, getattr(obj, "kind", None)):
            continue
        out[f.metadata.get("key", f.name)] = (
            _serialize(val) if is_dataclass(val)
            else list(val) if isinstance(val, list) else val)
    return out


def eta_tag(eta) -> str:
    """The eta as run, aggregate and sweep-summary names spell it."""
    return format(eta, ".6g")


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


def _for(task_kind, default):
    """A field that only the ``task_kind`` task has."""
    return field(default=default, metadata={"task": task_kind})


@dataclass
class TaskSpec:
    kind: str
    seed: int = 0
    d_out: int = _for("linear", 120)
    d_in: int = _for("linear", 40)
    init: str = _for("linear", "random")
    singular_values: Optional[list] = _for("linear", None)
    dims: Optional[list] = _for("mlp", None)
    nonlinearity: str = _for("mlp", "relu")
    loss: str = _for("mlp", "mse")
    n_samples: int = _for("mlp", 256)

    @classmethod
    def from_dict(cls, d):
        _check(d.get("kind") is None or d["kind"] in TASK_KINDS,
               f"task.kind must be one of {TASK_KINDS}", "task.kind")
        spec = _parse(cls, d, "task")
        if spec.kind == "linear":
            _check(spec.d_out >= 1 and spec.d_in >= 1,
                   "task dimensions must be positive", "task.d_out")
            sv = spec.singular_values
            if sv is not None:
                _check(all(_is(s, float) for s in sv),
                       "task.singular_values must list numbers",
                       "task.singular_values")
                spec.singular_values = sv = [float(s) for s in sv]
                _check(len(sv) <= min(spec.d_out, spec.d_in),
                       "too many singular values", "task.singular_values")
                _check(all(a >= b >= 0.0 for a, b in zip(sv, sv[1:] + [0.0])),
                       "task.singular_values must be nonincreasing and >= 0",
                       "task.singular_values")
            _check(spec.init in INITS, f"task.init must be one of {INITS}",
                   "task.init")
        else:
            _check(isinstance(spec.dims, list) and len(spec.dims) >= 2
                   and all(_is(x, int) and x >= 1 for x in spec.dims),
                   "task.dims must list at least two positive ints",
                   "task.dims")
            _check(spec.nonlinearity in ("relu", "tanh"),
                   "task.nonlinearity must be relu or tanh",
                   "task.nonlinearity")
            _check(spec.loss in ("mse", "cross_entropy"),
                   "task.loss must be mse or cross_entropy", "task.loss")
            _check(spec.n_samples >= 1, "task.n_samples must be positive",
                   "task.n_samples")
        return spec


@dataclass
class BatchSpec:
    mode: str
    size: Optional[int] = None

    @classmethod
    def from_dict(cls, d):
        spec = _parse(cls, d, "batch")
        _check(spec.mode in ("full", "minibatch"),
               "batch.mode must be full or minibatch", "batch.mode")
        if spec.mode == "minibatch":
            _check(spec.size is not None and spec.size >= 1,
                   "batch.size must be a positive int", "batch.size")
        else:
            _check(spec.size is None, "batch.size is only valid for minibatch",
                   "batch.size")
        return spec


@dataclass
class ExperimentConfig:
    task: TaskSpec
    method: str
    rank: int = 8
    k: int = 1
    alpha: float = 0.0
    lam: float = field(default=1e-3, metadata={"key": "lambda"})
    beta: float = 1.0
    delta: float = 1e-4
    steps: int = 200
    seeds: list = field(default_factory=lambda: [0])
    batch: BatchSpec = field(default_factory=lambda: BatchSpec("full"))
    out_dir: str = "runs"
    record_factors: bool = True
    timing: bool = True
    eta: Optional[float] = None
    eta_grid: Optional[list] = None
    momentum_rank: Optional[int] = None
    metric_rank: Optional[int] = None

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        version = d.pop("schema_version", None)
        _check(_is(version, int) and version == SCHEMA_VERSION,
               f"unsupported schema_version {version!r}", "schema_version")
        cfg = _parse(cls, d, "")
        _check(cfg.method in METHODS,
               f"method must be one of {tuple(METHODS)}", "method")
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
        # every layer's factors, momentum and metric are at most this wide
        side = min(self.task.dims if self.task.kind == "mlp"
                   else (self.task.d_out, self.task.d_in))
        for name in ("rank", "momentum_rank", "metric_rank"):
            value = getattr(self, name)
            _check(value is None or 1 <= value <= side,
                   f"{name} must lie in [1, {side}], the smallest layer side",
                   name)
        _check(self.k >= 1, "k must be at least 1", "k")
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
            tags = [eta_tag(x) for x in self.eta_grid]
            _check(len(set(tags)) == len(tags),
                   f"eta_grid values must differ in their run names {tags}",
                   "eta_grid")
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
        _check((self.beta < 1.0) == (self.method == "oplora_scaled"),
               "beta < 1 if and only if the method is oplora_scaled",
               "beta")
        if self.batch.mode == "minibatch":
            if self.task.kind == "linear":
                _check(self.batch.size <= self.task.d_in,
                       "batch size exceeds column count", "batch.size")
            else:
                _check(self.batch.size <= self.task.n_samples,
                       "batch size exceeds sample count", "batch.size")

    def etas(self):
        return [self.eta] if self.eta is not None else list(self.eta_grid)

    def to_dict(self):
        return {"schema_version": SCHEMA_VERSION, **_serialize(self)}
