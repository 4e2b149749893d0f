"""Span tracing of the oplora layers from outside the library.

A :class:`Tracer` replaces chosen library functions with thin wrappers
that record one span per call: name, start, end and parent span.  The
spans stay in memory until :func:`summarise` folds them into per-layer
metrics.  Self time is a span's duration minus the durations of its
direct children.

Modules import kernels by name (``from .matcore import matmul``), so a
wrapper is installed in every ``oplora`` module namespace that holds the
original object, and every replacement is undone by :meth:`Tracer.remove`.
"""

import functools
import sys
import time

import numpy as np

# (module, attribute) pairs wrapped by a traced run; the span name is
# "<layer>.<attribute>" with the layer taken from the module name.  Spans
# that feed no per-layer metric still split the self-time shares.
TRACED_FUNCTIONS = [
    ("oplora.matcore", "matmul"),
    ("oplora.matcore", "solve_spd"),
    ("oplora.matcore", "thin_qr"),
    ("oplora.matcore", "svd_dense"),
    ("oplora.lowrank", "truncated_svd"),
    ("oplora.lowrank", "product_distance"),
    ("oplora.lowrank", "product_distance_to_dense"),
    ("oplora.lorsum", "lorsum"),
    ("oplora.optim", "oplora_step"),
    ("oplora.optim", "prec_lora_step"),
    ("oplora.optim", "proj_lora_step"),
    ("oplora.optim", "svdlora_step"),
    ("oplora.optim", "sgd_step"),
    ("oplora.optim", "adamw_step"),
    ("oplora.optim", "momentum_update_lor"),
    ("oplora.nets", "linear_task_grad"),
    ("oplora.nets", "linear_task_grad_dense"),
    ("oplora.nets", "mlp_forward_backward"),
    ("oplora.nets", "init_adapter_random"),
    ("oplora.nets", "init_adapter_svd"),
    ("oplora.bench.runner", "run_single"),
    ("oplora.bench.runner", "write_run_csv"),
    ("oplora.bench.aggregate", "write_aggregate"),
]
# (module, class, method) triples wrapped on the class itself; the span
# name is "<layer>.<class>.<method>"
TRACED_METHODS = [
    ("oplora.nets", "LoraLinear", "forward"),
    ("oplora.nets", "LoraLinear", "backward"),
]
# the MLP's layers, keyed by the order of their forward calls in a step
MLP_LAYERS = 3


def _layer(module_name):
    # oplora.bench.runner -> bench, oplora.matcore -> matcore
    return module_name.split(".")[1]


def replace_everywhere(original, replacement):
    """Point every ``oplora`` module attribute bound to ``original`` at
    ``replacement``; return the ``(namespace, attr, original)`` undo list."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "oplora"
                               or mod_name.startswith("oplora.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo):
    for namespace, attr, original in reversed(undo):
        setattr(namespace, attr, original)


class Tracer:
    """Records nested spans of wrapped calls in parallel lists."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every traced function of a loaded oplora."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for mod_name, attr in TRACED_FUNCTIONS:
            fn = getattr(sys.modules[mod_name], attr)
            name = f"{_layer(mod_name)}.{attr}"
            self._undo += replace_everywhere(fn, self.wrap(name, fn))
        for mod_name, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            fn = vars(cls)[attr]
            name = f"{_layer(mod_name)}.{cls_name}.{attr}"
            setattr(cls, attr, self.wrap(name, fn))
            self._undo.append((cls, attr, fn))
        return self

    def remove(self):
        restore(self._undo)
        self._undo = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False


def _children(parents):
    kids = [[] for _ in parents]
    for i, p in enumerate(parents):
        if p >= 0:
            kids[p].append(i)
    return kids


def summarise(names, parents, starts, ends):
    """Fold spans into the per-layer metrics of one traced workload run.

    Every metric is returned, with 0 where the layer never ran.  Span
    lists are parallel: span ``i`` is ``names[i]``, running from
    ``starts[i]`` to ``ends[i]`` under span ``parents[i]`` (-1 at the
    top).
    """
    n = len(names)
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts,
                                                          dtype=np.float64)
    kids = _children(parents)
    self_s = dur.copy()
    for i, p in enumerate(parents):
        if p >= 0:
            self_s[p] -= dur[i]

    calls, total, own = {}, {}, {}
    for i in range(n):
        nm = names[i]
        calls[nm] = calls.get(nm, 0) + 1
        total[nm] = total.get(nm, 0.0) + dur[i]
        own[nm] = own.get(nm, 0.0) + self_s[i]

    def parent_name(i):
        p = parents[i]
        return names[p] if p >= 0 else None

    half_steps = sum(1 for i in range(n) if names[i] == "matcore.solve_spd"
                     and parent_name(i) == "lorsum.lorsum")
    weight_lorsum = sum(dur[i] for i in range(n)
                        if names[i] == "lorsum.lorsum"
                        and parent_name(i) == "optim.oplora_step")
    momentum_lorsum = sum(dur[i] for i in range(n)
                          if names[i] == "lorsum.lorsum"
                          and parent_name(i) == "optim.momentum_update_lor")
    # forward runs layer 0 first and backward runs it last, so the k-th of
    # either call under one mlp_forward_backward is the layer it names
    mlp_fwd = [0.0] * MLP_LAYERS
    mlp_bwd = [0.0] * MLP_LAYERS
    for i in range(n):
        if names[i] == "nets.mlp_forward_backward":
            fwd = [c for c in kids[i] if names[c] == "nets.LoraLinear.forward"]
            bwd = [c for c in kids[i]
                   if names[c] == "nets.LoraLinear.backward"][::-1]
            for k, c in enumerate(fwd[:MLP_LAYERS]):
                mlp_fwd[k] += dur[c]
            for k, c in enumerate(bwd[:MLP_LAYERS]):
                mlp_bwd[k] += dur[c]
    step_idx = [i for i in range(n) if names[i].startswith("optim.")
                and names[i].endswith("_step")]
    step_ms = dur[step_idx] * 1e3 if step_idx else np.zeros(1)

    # Telemetry: the thin loss/gap distances, plus truncated SVDs made
    # directly by the runner after its first one (the oracle, built at
    # set-up); the later ones record the svdlora trail.
    telemetry = total.get("lowrank.product_distance", 0.0) \
        + total.get("lowrank.product_distance_to_dense", 0.0)
    for i in range(n):
        if names[i] == "bench.run_single":
            svds = [c for c in kids[i] if names[c] == "lowrank.truncated_svd"]
            telemetry += sum(dur[c] for c in svds[1:])

    out = {
        "matcore.matmul.calls": calls.get("matcore.matmul", 0),
        "matcore.matmul.self_s": own.get("matcore.matmul", 0.0),
        "matcore.solve_spd.calls": calls.get("matcore.solve_spd", 0),
        "matcore.solve_spd.self_s": own.get("matcore.solve_spd", 0.0),
        "matcore.svd_dense.calls": calls.get("matcore.svd_dense", 0),
        "matcore.svd_dense.self_s": own.get("matcore.svd_dense", 0.0),
        "lowrank.truncated_svd.self_s": own.get("lowrank.truncated_svd", 0.0),
        "lorsum.lorsum.calls": calls.get("lorsum.lorsum", 0),
        "lorsum.lorsum.self_s": own.get("lorsum.lorsum", 0.0),
        "lorsum.half_steps": half_steps,
        "optim.weight_lorsum.total_s": float(weight_lorsum),
        "optim.momentum_lorsum.total_s": float(momentum_lorsum),
        "optim.step.calls": len(step_idx),
        "optim.step.self_s": float(sum(self_s[i] for i in step_idx)),
        "optim.step.p50_ms": float(np.percentile(step_ms, 50)),
        "optim.step.p99_ms": float(np.percentile(step_ms, 99)),
        "nets.task_grad.total_s": total.get("nets.linear_task_grad", 0.0)
        + total.get("nets.linear_task_grad_dense", 0.0),
        "nets.mlp_forward_backward.total_s":
            total.get("nets.mlp_forward_backward", 0.0),
        "bench.telemetry.total_s": float(telemetry),
        "bench.run_single.self_s": own.get("bench.run_single", 0.0),
        "bench.write_run_csv.total_s": total.get("bench.write_run_csv", 0.0),
        "bench.write_aggregate.total_s":
            total.get("bench.write_aggregate", 0.0),
    }
    for k in range(MLP_LAYERS):
        out[f"nets.layer{k}.forward_s"] = mlp_fwd[k]
        out[f"nets.layer{k}.backward_s"] = mlp_bwd[k]
    shares = {nm: float(v) for nm, v in own.items()}
    return {k: float(v) for k, v in out.items()}, shares
