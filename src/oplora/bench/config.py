"""Experiment configuration: one strictly-validated JSON document.

Each field is declared once, in its dataclass, with :func:`_field`: the
annotation is its type, the default its default (none: required), and
its metadata says the rest: ``key`` its JSON key where that differs from
the attribute name, ``task`` the one task kind that has it, ``choices``
its allowed values and ``min`` its inclusive lower bound.  One parser
and one serializer walk those declarations.  What metadata cannot say
is code in ``from_dict``/``validate``: rules on a list's entries, rules
that involve more than one field, and open or upper bounds.  Every
violation is a ``ConfigError`` naming its field.  Unknown keys are
rejected at every level so typos fail fast.  The schema is versioned via
``schema_version``; see the README for the full field reference.
"""

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Optional, get_args

from ..errors import ConfigError
from ..nets import LOSSES, NONLINEARITIES
from .methods import METHODS

SCHEMA_VERSION = 1


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
    type and then the field's ``choices`` and ``min``, float fields must
    be finite as floats (not NaN, inf, or an int past the float range)
    and are stored as floats and nested dataclasses are built by their
    ``from_dict``.  Another task kind's field, like any key not
    declared, is rejected as unknown.
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
        _check(kind is not float or abs(val) <= sys.float_info.max,
               f"{name} must be a finite float, got {val!r}", name)
        values[f.name] = val = (kind.from_dict(val) if want is not kind
                                else float(val) if kind is float else val)
        choices, lo = f.metadata.get("choices"), f.metadata.get("min")
        _check(choices is None or val in choices,
               f"{name} must be one of {choices}", name)
        _check(lo is None or val >= lo, f"{name} must be at least {lo}", name)
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
    if not (_is(x, float) and 0 < x <= sys.float_info.max):
        return False
    e = math.floor(math.log10(x) + 1e-12)
    for mant in (1.0, 2.0, 5.0):
        for exp in (e - 1, e, e + 1):
            if math.isclose(x, mant * 10.0 ** exp, rel_tol=1e-9):
                return True
    return False


def _field(default=MISSING, **metadata):
    """A field declaration; see the module docstring for the metadata."""
    return field(default=default, metadata=metadata)


@dataclass
class TaskSpec:
    kind: str = _field(choices=("linear", "mlp"))
    seed: int = _field(default=0, min=0)
    d_out: int = _field(task="linear", default=120, min=1)
    d_in: int = _field(task="linear", default=40, min=1)
    init: str = _field(task="linear", default="random",
                       choices=("random", "svd"))
    singular_values: Optional[list] = _field(task="linear", default=None)
    dims: Optional[list] = _field(task="mlp", default=None)
    nonlinearity: str = _field(task="mlp", default="relu",
                               choices=NONLINEARITIES)
    loss: str = _field(task="mlp", default="mse", choices=LOSSES)
    n_samples: int = _field(task="mlp", default=256, min=1)

    @classmethod
    def from_dict(cls, d):
        spec = _parse(cls, d, "task")
        if spec.kind == "linear":
            sv = spec.singular_values
            if sv is not None:
                _check(all(_is(s, float) and abs(s) <= sys.float_info.max
                           for s in sv),
                       "task.singular_values must list finite numbers",
                       "task.singular_values")
                spec.singular_values = sv = [float(s) for s in sv]
                _check(len(sv) <= min(spec.d_out, spec.d_in),
                       "too many singular values", "task.singular_values")
                _check(all(a >= b >= 0.0 for a, b in zip(sv, sv[1:] + [0.0])),
                       "task.singular_values must be nonincreasing and >= 0",
                       "task.singular_values")
        else:
            _check(isinstance(spec.dims, list) and len(spec.dims) >= 2
                   and all(_is(x, int) and x >= 1 for x in spec.dims),
                   "task.dims must list at least two positive ints",
                   "task.dims")
        return spec


@dataclass
class BatchSpec:
    mode: str = _field(choices=("full", "minibatch"))
    size: Optional[int] = _field(default=None, min=1)

    @classmethod
    def from_dict(cls, d):
        spec = _parse(cls, d, "batch")
        _check((spec.size is not None) == (spec.mode == "minibatch"),
               "batch.size is given if and only if batch.mode is minibatch",
               "batch.size")
        return spec


@dataclass
class ExperimentConfig:
    task: TaskSpec
    method: str = _field(choices=tuple(METHODS))
    rank: int = 8
    k: int = _field(default=1, min=1)
    alpha: float = 0.0
    lam: float = _field(default=1e-3, key="lambda", min=0.0)
    beta: float = 1.0
    delta: float = 1e-4
    steps: int = _field(default=200, min=1)
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
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path):
        # a ValueError is bad JSON or an int past Python's digit limit
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(doc)

    def validate(self):
        # The target (or each layer's weight), the MLP's activations and
        # a recorded linear run's trail blocks are the largest arrays of
        # a run; numpy cannot index one of more than sys.maxsize bytes
        # (8 bytes a float64 entry).
        t = self.task
        if t.kind == "linear":
            arrays = [("task.d_out", t.d_out, "task.d_in", t.d_in)]
        else:
            arrays = [("task.dims", a, "task.dims", b)
                      for a, b in zip(t.dims, t.dims[1:])]
            arrays.append(("task.n_samples", t.n_samples,
                           "task.dims", max(t.dims)))
        for rows_name, rows, cols_name, cols in arrays:
            _check(8 * rows * cols <= sys.maxsize,
                   f"a {rows} x {cols} array is past numpy's size limit",
                   rows_name if rows >= cols else cols_name)
        # every layer's factors, momentum and metric are at most this wide
        side = min(t.dims if t.kind == "mlp" else (t.d_out, t.d_in))
        for name in ("rank", "momentum_rank", "metric_rank"):
            value = getattr(self, name)
            _check(value is None or 1 <= value <= side,
                   f"{name} must lie in [1, {side}], the smallest layer side",
                   name)
        if t.kind == "linear" and self.record_factors:
            # one (steps, side, rank) block per factor, rank now in range
            _check(8 * self.steps * max(t.d_out, t.d_in) * self.rank
                   <= sys.maxsize,
                   f"a {self.steps}-step factor trail is past numpy's "
                   "size limit", "steps")
        _check((self.eta is None) != (self.eta_grid is None),
               "exactly one of eta and eta_grid is required", "eta")
        if self.eta is not None:
            _check(self.eta > 0, "eta must be positive", "eta")
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
        _check(0.0 < self.beta <= 1.0, "beta must lie in (0, 1]", "beta")
        _check(self.delta > 0.0 if self.beta < 1.0 else self.delta >= 0.0,
               "delta must be nonnegative, and positive when beta < 1",
               "delta")
        # a run seed is spelled out in its file names
        _check(isinstance(self.seeds, list) and self.seeds
               and all(_is(s, int) and 0 <= s < 2**64 for s in self.seeds),
               "seeds must be a nonempty list of ints in [0, 2**64)", "seeds")
        _check(len(set(self.seeds)) == len(self.seeds),
               "seeds must be distinct", "seeds")
        _check(self.out_dir, "out_dir must not be empty", "out_dir")
        _check((self.beta < 1.0) == (self.method == "oplora_scaled"),
               "beta < 1 if and only if the method is oplora_scaled",
               "beta")
        if self.batch.mode == "minibatch":
            if t.kind == "linear":
                _check(self.batch.size <= t.d_in,
                       "batch size exceeds column count", "batch.size")
            else:
                _check(self.batch.size <= t.n_samples,
                       "batch size exceeds sample count", "batch.size")

    def etas(self):
        return [self.eta] if self.eta is not None else list(self.eta_grid)

    def to_dict(self):
        return {"schema_version": SCHEMA_VERSION, **_serialize(self)}
