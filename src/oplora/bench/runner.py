"""Run execution: seeding, per-step telemetry, CSV and manifest output.

Each (method, eta, seed) combination is an independent run writing one
CSV with the fixed header ``step,loss,oracle_gap,flops,wall_ms``.  Row
``t`` records the loss of the iterate *before* step ``t`` (so row 0 is
the initial loss).  ``flops`` and ``wall_ms`` count the task passes and
the steps: not the set-up, and not the telemetry (the linear task's
loss and gap), whose charges and seconds the run loop takes out as it
runs, so that every method is counted alike.  Factor trajectories are
optionally saved alongside for cross-run product-distance reports: a
linear run records its trail a step at a time into one block per
factor, ``(steps, d_out, r)`` and ``(steps, d_in, r)``, allocated at
its first record, and ``run_experiment`` drops it once its ``.npz`` is
written, so a sweep holds one trail at a time.
Runs execute sequentially; failures are recorded in the manifest and do
not stop the remaining runs.  The manifest is rewritten after every
run.

What depends only on the task, the rank and the method is built once
per experiment and shared, read-only, by its runs: the linear task's
target, initial pair, telemetry reference and ``full``'s dense oracle,
or the MLP's dataset and each layer's base weight and initial pair.
Each run builds its own batch stream, layers, method state and trail.
"""

import json
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import nets
from ..errors import OploraError, SweepError
from ..instrument import counters
from ..lowrank import loss_and_gap, telemetry_reference, truncated_svd
from ..matcore import matmul
from .aggregate import f17, write_aggregate
from .config import ExperimentConfig, eta_tag
from .methods import METHODS

RUN_HEADER = "step,loss,oracle_gap,flops,wall_ms"


@dataclass
class RunRecord:
    step: int
    loss: float
    oracle_gap: Optional[float]
    flops: int
    wall_ms: float


def write_run_csv(path, records):
    with open(path, "w") as fh:
        fh.write(RUN_HEADER + "\n")
        for rec in records:
            gap = "" if rec.oracle_gap is None else f17(rec.oracle_gap)
            fh.write(f"{rec.step},{f17(rec.loss)},{gap},"
                     f"{rec.flops},{f17(rec.wall_ms)}\n")


def read_run_csv(path):
    records = []
    lineno = 1
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != RUN_HEADER:
                raise OploraError(
                    f"unexpected CSV header in {path}: {header!r}")
            for lineno, line in enumerate(fh, start=2):
                step, loss, gap, flops, wall = line.strip().split(",")
                records.append(RunRecord(
                    int(step), float(loss), None if gap == "" else float(gap),
                    int(flops), float(wall)))
    except OSError as exc:
        raise OploraError(f"cannot read run CSV {path}: {exc}") from exc
    except ValueError as exc:
        raise OploraError(
            f"{path}, line {lineno}: not a run record: {exc}") from exc
    if not records:
        raise OploraError(f"run CSV {path} has no records")
    return records


def _read_only(*arrays):
    """Mark a shared set-up's arrays read-only: a run that wrote into one
    would change every later run of the experiment, so it fails instead."""
    for a in arrays:
        a.flags.writeable = False


class _LinearProblem:
    """The linear task as one layer fitted by column sampling:
    ``nets.linear_task_grad`` sets its captures, as the MLP pass does.

    The loss column reports the full objective (cheap to get thin);
    minibatching only affects the gradients.  The full baseline's layer
    is scored at its dense weight, every other one at its adapter,
    against a reference built at set-up: the target checked and the
    oracle, each with its squared norm (``lowrank.telemetry_reference``).
    """

    @staticmethod
    def setup(cfg: ExperimentConfig):
        """The task, the initial pair, the telemetry reference and
        ``full``'s dense oracle: all of them depend on the task, the rank
        and the method only, so every run of the config shares them."""
        target = nets.make_linear_target(cfg.task.d_out, cfg.task.d_in,
                                         nets.seeded_stream(cfg.task.seed, 0),
                                         cfg.task.singular_values)
        if cfg.task.init == "svd":
            # the initial pair is the oracle; both are only read
            init_pair = oracle = nets.init_adapter_svd(target, cfg.rank)
        else:
            init_pair = nets.init_adapter_random(
                cfg.task.d_out, cfg.task.d_in, cfg.rank,
                nets.seeded_stream(cfg.task.seed, 1))
            oracle = truncated_svd(target, cfg.rank)
        # only the full baseline's gap is read against the dense oracle
        oracle_dense = (matmul(oracle.u, oracle.v.T)
                        if cfg.method == "full" else None)
        _read_only(target, init_pair.u, init_pair.v, oracle.u, oracle.v,
                   *([] if oracle_dense is None else [oracle_dense]))
        return (nets.LinearTask(target), init_pair,
                telemetry_reference(target, oracle), oracle_dense)

    def __init__(self, cfg: ExperimentConfig, seed, setup):
        self.cfg = cfg
        self.task, init_pair, self.reference, self.oracle_dense = setup
        self.layers = [nets.LoraLinear(None, init_pair)]
        self.rng = nets.seeded_stream(seed, 2)
        self.trail = None

    def task_pass(self, layers):
        """Draw a batch and run the pass on it, which sets the captures."""
        idx = nets.sample_batch(self.task.d_in, self.cfg.batch.size, self.rng)
        nets.linear_task_grad(self.task, layers[0], idx)

    def telemetry(self, layers, t):
        """The (loss, gap) of the layer; records its factors as row ``t``
        of the trail."""
        layer = layers[0]
        if layer.w0 is None:
            loss, gap = loss_and_gap(layer.adapter, self.reference)
        else:
            loss = 0.5 * float(np.sum((layer.w0 - self.task.target) ** 2))
            gap = float(np.linalg.norm(layer.w0 - self.oracle_dense))
        # the full baseline's empty adapter has no trail
        pair = layer.adapter
        if self.cfg.record_factors and pair.rank:
            if self.trail is None:
                self.trail = tuple(np.empty((self.cfg.steps,) + a.shape)
                                   for a in (pair.u, pair.v))
            self.trail[0][t], self.trail[1][t] = pair.u, pair.v
        return loss, gap


class _MlpProblem:
    """The synthetic MLP task: one adapter layer per weight, row batches.
    Its loss is the batch loss its pass computes, so it has no
    telemetry of its own."""

    @staticmethod
    def setup(cfg: ExperimentConfig):
        """The task, its dataset and each layer's base weight and initial
        pair, shared by every run of the config."""
        task = nets.MlpTask(cfg.task.dims, cfg.task.nonlinearity,
                            cfg.task.loss, cfg.task.n_samples)
        x, y = nets.make_mlp_dataset(task, nets.seeded_stream(cfg.task.seed, 3))
        layers = nets.make_mlp_layers(task, cfg.rank,
                                      nets.seeded_stream(cfg.task.seed, 4))
        _read_only(x, y, *(a for layer in layers for a in
                           (layer.w0, layer.adapter.u, layer.adapter.v)))
        return task, x, y, [(layer.w0, layer.adapter) for layer in layers]

    def __init__(self, cfg: ExperimentConfig, seed, setup):
        self.task, self.x, self.y, weights = setup
        self.layers = [nets.LoraLinear(w0, pair) for w0, pair in weights]
        self.rng = nets.seeded_stream(seed, 5)
        self.batch_size = cfg.batch.size
        self.loss = None
        self.trail = None  # never recorded for the MLP

    def task_pass(self, layers):
        rows = nets.sample_batch(self.task.n_samples, self.batch_size,
                                 self.rng)
        self.loss = nets.mlp_forward_backward(self.task, layers, self.x[rows],
                                              self.y[rows])

    def telemetry(self, layers, t):
        return self.loss, None


_PROBLEMS = {"linear": _LinearProblem, "mlp": _MlpProblem}


def run_single(cfg: ExperimentConfig, eta, seed, setup):
    """One (eta, seed) run of the config's method; returns the step
    records and the factor trail, a ``(steps, d_out, r)`` and a
    ``(steps, d_in, r)`` block (None when none was recorded).

    ``setup`` is the config's shared set-up, the problem type's
    ``setup(cfg)``, which ``run_experiment`` builds once for all its
    runs."""
    method = METHODS[cfg.method]
    problem = _PROBLEMS[cfg.task.kind](cfg, seed, setup)
    layers, states = [], []
    for layer in problem.layers:
        layer, state = method.init(cfg, eta, seed, layer)
        layers.append(layer)
        states.append(state)
    records = []
    flops0 = counters().flops
    t0 = time.perf_counter()
    for t in range(cfg.steps):
        i = None  # the layer being stepped; None while evaluating
        try:
            problem.task_pass(layers)
            # the telemetry's charges and seconds stay out of the columns
            flops1, t1 = counters().flops, time.perf_counter()
            loss, gap = problem.telemetry(layers, t)
            flops0 += counters().flops - flops1
            t0 += time.perf_counter() - t1
            wall = (time.perf_counter() - t0) * 1e3 if cfg.timing else 0.0
            records.append(RunRecord(t, loss, gap,
                                     counters().flops - flops0, wall))
            for i, (layer, state) in enumerate(zip(layers, states)):
                method.step(cfg, eta, layer, state)
        except OploraError as exc:
            exc.step, exc.layer = t, i
            raise
    return records, problem.trail


def _run_name(method, eta, seed) -> str:
    return f"{method}_eta{eta_tag(eta)}_seed{seed}"


def _write_manifest(out_dir, manifest):
    # a temp file renamed over the old one: a kill at any point leaves a
    # whole manifest behind
    path = os.path.join(out_dir, "manifest.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(manifest, fh, indent=2)
    os.replace(path + ".tmp", path)


def run_experiment(cfg: ExperimentConfig, out_dir=None, quiet=False) -> dict:
    """Execute every (eta, seed) run of the config and aggregate.

    Returns the manifest dict.  The config's set-up is built once, before
    the first run, and shared by every run.  ``manifest.json`` is
    rewritten after each run, so a killed sweep leaves one listing the
    runs finished so far.  Optimizer errors mark the run failed; the
    remaining runs continue.
    """
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"schema_version": 1, "config": cfg.to_dict(), "runs": []}
    per_eta_records = {}
    setup = None
    for eta in cfg.etas():
        for seed in cfg.seeds:
            name = _run_name(cfg.method, eta, seed)
            entry = {"method": cfg.method, "eta": eta, "seed": seed,
                     "status": "ok", "error": None,
                     "csv": f"{name}.csv", "trail": None}
            try:
                # built in the first run's try: an error in it fails the
                # run, as an error in a run's own set-up would
                if setup is None:
                    setup = _PROBLEMS[cfg.task.kind].setup(cfg)
                records, trail = run_single(cfg, eta, seed, setup)
            except OploraError as exc:
                where = "" if exc.step is None else f" at step {exc.step}"
                if exc.layer is not None:
                    where += f", layer {exc.layer}"
                entry["status"] = "failed"
                entry["error"] = f"{type(exc).__name__}{where}: {exc}"
                entry["csv"] = None
                if not quiet:
                    print(f"[bench] {name}: FAILED ({entry['error']})")
            else:
                write_run_csv(os.path.join(out_dir, entry["csv"]), records)
                if trail is not None:
                    entry["trail"] = f"{name}.npz"
                    np.savez(os.path.join(out_dir, entry["trail"]),
                             u=trail[0], v=trail[1])
                    trail = None  # written: free it before the next run
                per_eta_records.setdefault(eta, []).append(records)
                if not quiet:
                    print(f"[bench] {name}: ok "
                          f"(final loss {records[-1].loss:.6g})")
            manifest["runs"].append(entry)
            _write_manifest(out_dir, manifest)
    for eta, record_sets in per_eta_records.items():
        agg_path = os.path.join(
            out_dir, f"agg_{cfg.method}_eta{eta_tag(eta)}.csv")
        write_aggregate(agg_path, record_sets)
    return manifest


def sweep_score(records) -> float:
    """Mean loss over the final 10% of steps; inf when non-finite."""
    losses = np.array([r.loss for r in records])
    tail = max(1, len(losses) // 10)
    score = float(np.mean(losses[-tail:]))
    return score if np.isfinite(score) else float("inf")


def lr_sweep(cfg: ExperimentConfig, quiet=False):
    """Run the grid, score each eta, and emit a sorted sweep summary.

    The score of an eta is the median across seeds of the mean loss over
    the final 10% of steps; ties break toward the smaller eta and
    non-finite runs rank last.  Returns ``(best_eta, manifest)``.
    """
    out_dir = cfg.out_dir
    manifest = run_experiment(cfg, quiet=quiet)
    by_eta = {}
    for entry in manifest["runs"]:
        if entry["status"] != "ok":
            continue
        records = read_run_csv(os.path.join(out_dir, entry["csv"]))
        by_eta.setdefault(entry["eta"], []).append(sweep_score(records))
    rows = []
    for eta in cfg.etas():
        scores = by_eta.get(eta)
        if not scores:
            rows.append((eta, float("inf"), "failed"))
        else:
            score = float(np.median(scores))
            status = "ok" if np.isfinite(score) else "divergent"
            rows.append((eta, score if np.isfinite(score) else float("inf"),
                         status))
    rows.sort(key=lambda r: (r[1], r[0]))
    with open(os.path.join(out_dir, "sweep_summary.csv"), "w") as fh:
        fh.write("eta,score,status\n")
        for eta, score, status in rows:
            stext = "inf" if not np.isfinite(score) else f17(score)
            fh.write(f"{eta_tag(eta)},{stext},{status}\n")
    finite = [r for r in rows if np.isfinite(r[1])]
    if not finite:
        raise SweepError("all sweep runs failed or diverged")
    best = finite[0][0]
    with open(os.path.join(out_dir, "sweep_best.json"), "w") as fh:
        json.dump({"best_eta": best, "score": finite[0][1]}, fh, indent=2)
    if not quiet:
        print(f"[bench] sweep best eta = {best}")
    return best, manifest
