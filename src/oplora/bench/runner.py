"""Run execution: seeding, per-step telemetry, CSV and manifest output.

Each (method, eta, seed) combination is an independent run writing one
CSV with the fixed header ``step,loss,oracle_gap,flops,wall_ms``.  Row
``t`` records the loss of the iterate *before* step ``t`` (so row 0 is
the initial loss).  Factor trajectories are optionally saved alongside
for cross-run product-distance reports.  Runs execute sequentially;
failures are recorded in the manifest and do not stop the remaining
runs.
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
from ..lowrank import product_distance, product_distance_to_dense, truncated_svd
from .aggregate import f17, write_aggregate
from .config import ExperimentConfig
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
    with open(path) as fh:
        header = fh.readline().strip()
        if header != RUN_HEADER:
            raise OploraError(f"unexpected CSV header in {path}: {header!r}")
        for line in fh:
            step, loss, gap, flops, wall = line.strip().split(",")
            records.append(RunRecord(
                int(step), float(loss),
                None if gap == "" else float(gap), int(flops), float(wall)))
    return records


def _seeded(*keys) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(list(keys))))


class _LinearProblem:
    """The linear task as one adapter-only layer fitted by column sampling.

    The loss column reports the full objective (cheap to get thin);
    minibatching only affects the gradients.  Dense methods are scored
    and differentiated at their dense weight.
    """

    def __init__(self, cfg: ExperimentConfig, seed):
        self.cfg = cfg
        target = nets.make_linear_target(cfg.task.d_out, cfg.task.d_in,
                                         _seeded(cfg.task.seed, 0),
                                         cfg.task.singular_values)
        self.task = nets.LinearTask(target, cfg.batch.size)
        if cfg.task.init == "svd":
            init_pair = nets.init_adapter_svd(target, cfg.rank)
        else:
            init_pair = nets.init_adapter_random(
                cfg.task.d_out, cfg.task.d_in, cfg.rank,
                _seeded(cfg.task.seed, 1))
        self.oracle = truncated_svd(target, cfg.rank)
        self.oracle_dense = self.oracle.u @ self.oracle.v.T
        self.layers = [nets.LoraLinear(None, init_pair)]
        self.rng = _seeded(seed, 2)
        self.trail = []

    def evaluate(self, method, layers, states):
        """Draw a batch; return (loss, gap, per-layer dense gradients or
        None where the step reads the captures this sets)."""
        layer, state = layers[0], states[0]
        idx = nets.sample_batch(self.task, self.rng)
        if method.dense:
            w = state.dense_weight
            grad, _ = nets.linear_task_grad_dense(self.task, w, idx)
            loss = 0.5 * float(np.sum((w - self.task.target) ** 2))
            gap = float(np.linalg.norm(w - self.oracle_dense))
        else:
            grad = None
            left, right, _ = nets.linear_task_grad(self.task, layer.adapter,
                                                   idx)
            layer.captured_x, layer.captured_s = right.T, left.T
            loss = 0.5 * product_distance_to_dense(layer.adapter,
                                                   self.task.target) ** 2
            gap = product_distance(layer.adapter, self.oracle)
        if self.cfg.record_factors and method.low_rank:
            pair = truncated_svd(w, self.cfg.rank) if method.dense \
                else layer.adapter
            self.trail.append((pair.u.copy(), pair.v.copy()))
        return loss, gap, [grad]


class _MlpProblem:
    """The synthetic MLP task: one adapter layer per weight, row batches."""

    def __init__(self, cfg: ExperimentConfig, seed):
        self.task = nets.MlpTask(cfg.task.dims, cfg.task.nonlinearity,
                                 cfg.task.loss, cfg.task.n_samples,
                                 seed=cfg.task.seed)
        self.x, self.y = nets.make_mlp_dataset(self.task,
                                               _seeded(cfg.task.seed, 3))
        self.layers = nets.make_mlp_layers(self.task, cfg.rank,
                                           _seeded(cfg.task.seed, 4))
        self.rng = _seeded(seed, 5)
        self.batch_size = cfg.batch.size
        self.trail = []  # never recorded for the MLP

    def evaluate(self, method, layers, states):
        n = self.task.n_samples
        if self.batch_size is None:
            rows = np.arange(n)
        else:
            rows = self.rng.choice(n, size=self.batch_size, replace=False)
        loss = nets.mlp_forward_backward(self.task, layers, self.x[rows],
                                         self.y[rows])
        return loss, None, [None] * len(layers)


def run_single(cfg: ExperimentConfig, eta, seed):
    """One (eta, seed) run of the config's method; returns the step
    records and the factor trail (None when none was recorded)."""
    method = METHODS[cfg.method]
    problem_type = _LinearProblem if cfg.task.kind == "linear" else _MlpProblem
    problem = problem_type(cfg, seed)
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
            loss, gap, grads = problem.evaluate(method, layers, states)
            wall = (time.perf_counter() - t0) * 1e3 if cfg.timing else 0.0
            records.append(RunRecord(t, loss, gap,
                                     counters().flops - flops0, wall))
            for i, (layer, state, grad) in enumerate(zip(layers, states,
                                                         grads)):
                method.step(cfg, eta, layer, state, grad)
        except OploraError as exc:
            exc.step, exc.layer = t, i
            raise
    if not problem.trail:
        return records, None
    trail_u, trail_v = zip(*problem.trail)
    return records, (np.stack(trail_u), np.stack(trail_v))


def _run_name(method, eta, seed) -> str:
    return f"{method}_eta{format(eta, '.6g')}_seed{seed}"


def run_experiment(cfg: ExperimentConfig, out_dir=None, quiet=False) -> dict:
    """Execute every (eta, seed) run of the config and aggregate.

    Returns the manifest dict (also written to ``manifest.json``).
    Optimizer errors mark the run failed; the remaining runs continue.
    """
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"schema_version": 1, "config": cfg.to_dict(), "runs": []}
    per_eta_records = {}
    for eta in cfg.etas():
        for seed in cfg.seeds:
            name = _run_name(cfg.method, eta, seed)
            entry = {"method": cfg.method, "eta": eta, "seed": seed,
                     "status": "ok", "error": None,
                     "csv": f"{name}.csv", "trail": None}
            try:
                records, trail = run_single(cfg, eta, seed)
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
                per_eta_records.setdefault(eta, []).append(records)
                if not quiet:
                    print(f"[bench] {name}: ok "
                          f"(final loss {records[-1].loss:.6g})")
            manifest["runs"].append(entry)
    for eta, record_sets in per_eta_records.items():
        agg_path = os.path.join(
            out_dir, f"agg_{cfg.method}_eta{format(eta, '.6g')}.csv")
        write_aggregate(agg_path, record_sets)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def sweep_score(records) -> float:
    """Mean loss over the final 10% of steps; inf when non-finite."""
    losses = np.array([r.loss for r in records])
    tail = max(1, len(losses) // 10)
    score = float(np.mean(losses[-tail:]))
    return score if np.isfinite(score) else float("inf")


def lr_sweep(cfg: ExperimentConfig, out_dir=None, quiet=False):
    """Run the grid, score each eta, and emit a sorted sweep summary.

    The score of an eta is the median across seeds of the mean loss over
    the final 10% of steps; ties break toward the smaller eta and
    non-finite runs rank last.  Returns ``(best_eta, manifest)``.
    """
    out_dir = out_dir or cfg.out_dir
    manifest = run_experiment(cfg, out_dir=out_dir, quiet=quiet)
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
            fh.write(f"{format(eta, '.6g')},{stext},{status}\n")
    finite = [r for r in rows if np.isfinite(r[1])]
    if not finite:
        raise SweepError("all sweep runs failed or diverged")
    best = finite[0][0]
    with open(os.path.join(out_dir, "sweep_best.json"), "w") as fh:
        json.dump({"best_eta": best, "score": finite[0][1]}, fh, indent=2)
    if not quiet:
        print(f"[bench] sweep best eta = {best}")
    return best, manifest
