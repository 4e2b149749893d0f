"""One workload run in a fresh interpreter.

Usage: ``python3 perfbench/child.py <mode> <workload> <seed> <out_dir>``
with ``src`` on ``PYTHONPATH``; ``mode`` is ``plain``, ``trace`` or
``tracemalloc``.  Runs the workload's config through
``oplora.bench.runner.run_experiment`` and writes ``result.json`` into
``out_dir``.  The workload's host speed probe (``speed.py``) is timed
before each ``run_single`` and after the run; the time spent probing is
taken out of ``setup_s`` and ``wall_s``.  The parent process turns the
results of several children into the benchmark's metrics.
"""

import hashlib
import json
import os
import sys
import time
import tracemalloc

import numpy as np

import speed
import workloads
from oplora import instrument, nets, optim
from oplora.bench import runner
from oplora.bench.config import ExperimentConfig
from tracer import Tracer, replace_everywhere, restore, summarise


class Probes:
    """Observers that leave the numerics alone: the first optimizer step
    call, run_single timing and flop counts, the generated targets, and
    the host speed probe timed before each run_single."""

    def __init__(self, speed_probe):
        self.first_step = None
        self.run_s = []
        self.flops = []
        self.targets = []
        self.speed_probe = speed_probe
        self.probe_s = []  # seconds per probe repetition, one per probe
        self.probe_spans = []  # (start, end) of each probe
        self._undo = []
        self._step_undo = []

    def time_probe(self):
        t0 = time.monotonic()
        self.probe_s.append(speed.measure(self.speed_probe))
        self.probe_spans.append((t0, time.monotonic()))

    def probing_s(self, start, end):
        """Seconds spent probing between ``start`` and ``end``."""
        return sum(e - s for s, e in self.probe_spans
                   if s >= start and e <= end)

    def install(self):
        for attr, fn in sorted(vars(optim).items()):
            if attr.endswith("_step") and callable(fn):
                self._step_undo += replace_everywhere(fn, self._first(fn))
        run_single = runner.run_single
        make_target = nets.make_linear_target

        def timed_run_single(*args, **kwargs):
            self.time_probe()
            flops0 = instrument.counters().flops
            t0 = time.perf_counter()
            try:
                return run_single(*args, **kwargs)
            finally:
                self.run_s.append(time.perf_counter() - t0)
                self.flops.append(instrument.counters().flops - flops0)

        def captured_target(*args, **kwargs):
            target = make_target(*args, **kwargs)
            self.targets.append(target)
            return target

        self._undo += replace_everywhere(run_single, timed_run_single)
        self._undo += replace_everywhere(make_target, captured_target)
        return self

    def _first(self, fn):
        def first_call(*args, **kwargs):
            if self.first_step is None:
                self.first_step = time.monotonic()
                restore(self._step_undo)
                self._step_undo = []
            return fn(*args, **kwargs)
        return first_call

    def remove(self):
        restore(self._step_undo)
        restore(self._undo)
        self._step_undo, self._undo = [], []


def eckart_young_floor(target, rank):
    sigma = np.linalg.svd(target, compute_uv=False)
    return 0.5 * float(np.sum(sigma[rank:] ** 2))


def read_runs(out_dir, manifest):
    """Losses of each ok run, and a digest of every CSV column except
    ``wall_ms`` (the only column that timing may change).

    A run's final loss is ``runner.sweep_score``, the mean over its last
    10% of logged steps: on the MLP task each logged loss is one
    minibatch's, too noisy alone.
    """
    digest = hashlib.sha256()
    runs = []
    for entry in manifest["runs"]:
        if entry["status"] != "ok":
            continue
        path = os.path.join(out_dir, entry["csv"])
        with open(path) as fh:
            for line in fh.read().splitlines():
                digest.update(line.rsplit(",", 1)[0].encode() + b"\n")
        records = runner.read_run_csv(path)
        losses = np.array([r.loss for r in records])
        runs.append({"seed": entry["seed"], "steps": len(records),
                     "first_loss": losses[0], "min_loss": losses.min(),
                     "final_loss": runner.sweep_score(records),
                     "all_finite": bool(np.all(np.isfinite(losses)))})
    return runs, digest.hexdigest()


def main(mode, workload, seed, out_dir):
    root = os.getcwd()
    cfg = ExperimentConfig.from_dict(
        workloads.config_doc(root, workload, seed, out_dir))
    tracer = Tracer()
    if mode == "trace":
        tracer.install()
    # outside the tracer's wrappers, so that no span covers a probe
    probes = Probes(workloads.load_spec()["workloads"][workload]
                    ["speed_probe"]).install()
    if mode == "tracemalloc":
        tracemalloc.start()
    t0 = time.monotonic()
    manifest = runner.run_experiment(cfg, out_dir=out_dir, quiet=True)
    t1 = time.monotonic()
    probes.remove()
    tracer.remove()
    if mode == "tracemalloc":
        tracemalloc_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    probes.time_probe()  # after the aggregation that ends the run

    runs, digest = read_runs(out_dir, manifest)
    result = {
        "mode": mode,
        "first_step": probes.first_step,
        "setup_probing_s": probes.probing_s(0.0, probes.first_step),
        "probe": probes.speed_probe,
        "probe_s": probes.probe_s,
        "wall_s": t1 - t0 - probes.probing_s(t0, t1),
        "run_single_s": sum(probes.run_s),
        "steps": sum(r["steps"] for r in runs),
        "attempted": len(manifest["runs"]),
        "failed": sum(1 for e in manifest["runs"] if e["status"] != "ok"),
        "errors": [e["error"] for e in manifest["runs"] if e["error"]],
        "runs": runs,
        "csv_digest": digest,
        "flops": sum(probes.flops),
        "peak_alloc": instrument.counters().peak_alloc,
        "floor": (max(eckart_young_floor(t, cfg.rank) for t in probes.targets)
                  if probes.targets else None),
    }
    if mode == "tracemalloc":
        result["tracemalloc_peak"] = tracemalloc_peak
    if mode == "trace":
        result["layers"], result["self_s"] = summarise(
            tracer.names, tracer.parents, tracer.starts, tracer.ends)
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])
