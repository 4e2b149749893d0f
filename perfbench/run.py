"""oplora benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload linear_minibatch --seed 0 \
        --seconds 40 --trace 0

Each workload run happens in a child interpreter (``perfbench/child.py``)
with BLAS pinned to one thread.  Children run back to back (a closed
loop) until the time is spent.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced children and
reports the per-layer metrics.  Times are scored at the speed of a
reference host: each child times a host speed probe next to its
workload (see ``speed.py``); the times as measured are printed too.
Every run checks the outputs (see ``gate``); the command exits nonzero
when a check fails.  A child that
crashes or overruns ends the loop and fails the check.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; it is missing only when no child finished
to measure.  A fuller record, with quartiles, sample
counts and the environment, is written under ``.perfbench_out/``.
"""

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
# a run stops starting children past this, whatever --seconds says
HARD_LIMIT_S = 90.0
# a child still running this long after the run began is killed, so that
# the run ends within 180 s
RUN_LIMIT_S = 170.0
MIN_CYCLES = {0: 5, 1: 2}
# a logged loss may sit this far (relative) below the floor by roundoff
FLOOR_SLACK = 1e-9
# the seed at which the config runs as shipped (see workloads.run_seeds),
# the only one the references in workloads.json were recorded at
REFERENCE_SEED = 0
FINAL_LOSS_RTOL = 1e-8


def load_metrics(root):
    """Metric names and units, from the benchmark's ``BENCHMARK.json``."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchError(Exception):
    pass


def _child_timeout(signum, frame):
    raise BenchError(f"a child was still running {RUN_LIMIT_S:g} s "
                     "after the run began")


def spawn(mode, workload, seed, out_dir, deadline):
    """Run one child to completion; return its result with the times and
    memory only the parent can see."""
    os.makedirs(out_dir)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"),
               **CHILD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload,
           str(seed), out_dir]
    log_path = os.path.join(out_dir, "child.log")
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        signal.alarm(max(1, math.ceil(deadline - t_spawn)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # the alarm, or an interrupt
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
    # the child is reaped; record it so that Popen does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{mode} child exited with {proc.returncode}:\n{tail}")
    with open(os.path.join(out_dir, "result.json")) as fh:
        result = json.load(fh)
    shutil.rmtree(out_dir)
    # the probe timed before the first run is the benchmark's, not set-up
    result["setup_s"] = (result["first_step"] - t_spawn
                         - result["setup_probing_s"])
    # how much slower this host ran than the reference host, over the run
    result["slowdown"] = (statistics.fmean(result["probe_s"])
                          / speed.REFERENCE_S[result["probe"]])
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB
    return result


def run_children(workload, seed, seconds, trace, run_dir, t_begin):
    """Closed loop: start the next child when the previous one ends, until
    another cycle would overrun ``seconds``.  Returns the results and the
    error of a child that crashed or overran, which ends the loop."""
    cycle = ["plain", "trace"] if trace else ["plain"]
    modes = (["tracemalloc"] if trace else []) + cycle
    results = []
    t_start = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    cycle_s = []
    try:
        while True:
            c0 = time.monotonic()
            for mode in modes:
                results.append(spawn(
                    mode, workload, seed,
                    os.path.join(run_dir, f"c{len(results)}"), deadline))
            modes = cycle
            cycle_s.append(time.monotonic() - c0)
            elapsed = time.monotonic() - t_start
            if elapsed > HARD_LIMIT_S or (
                    len(cycle_s) >= MIN_CYCLES[trace]
                    and elapsed + statistics.median(cycle_s) > seconds):
                return results, None
    except BenchError as exc:
        return results, str(exc)


def gate(results, workload, seed, spec):
    """Correctness checks over every child of a run; returns the failures."""
    failures = []
    for res in results:
        if res["failed"]:
            failures.append(f"{res['failed']} of {res['attempted']} runs "
                            f"failed: {res['errors']}")
        for run in res["runs"]:
            tag = f"{res['mode']} run seed {run['seed']}"
            if not run["all_finite"]:
                failures.append(f"{tag}: non-finite loss logged")
            elif not run["final_loss"] < run["first_loss"]:
                failures.append(f"{tag}: final loss {run['final_loss']!r} "
                                f"not below initial {run['first_loss']!r}")
            floor = res["floor"]
            if floor is not None and \
                    run["min_loss"] < floor * (1.0 - FLOOR_SLACK):
                failures.append(f"{tag}: loss {run['min_loss']!r} "
                                f"below the Eckart-Young floor {floor!r}")
    digests = {res["csv_digest"] for res in results}
    if len(digests) != 1:
        failures.append("run CSVs differ between children "
                        "(ignoring wall_ms); tracing or state perturbs them")
    if seed == REFERENCE_SEED and not failures:
        ref = spec["workloads"][workload]["reference_final_loss"]
        got = final_loss(results[0])
        if ref is None:
            failures.append(f"no reference final loss recorded; "
                            f"this run gives {got!r}")
        elif abs(got - ref) > FINAL_LOSS_RTOL * abs(ref):
            failures.append(f"final loss {got!r} differs from the reference "
                            f"{ref!r} by more than rtol {FINAL_LOSS_RTOL}")
    return failures


def final_loss(result):
    losses = [r["final_loss"] for r in result["runs"]]
    return statistics.median(losses) if losses else math.nan


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarise(samples, units):
    """Median, quartiles and count of each metric's samples, checking the
    metric set against ``BENCHMARK.json``."""
    if set(samples) != set(units):
        raise BenchError("metrics disagree with BENCHMARK.json: "
                         f"{sorted(set(samples) ^ set(units))}")
    out = {}
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        out[name] = {"value": statistics.median(values), "unit": units[name],
                     "q1": q1, "q3": q3, "n": len(values)}
    return out


def end_to_end(plain, units):
    samples = {
        "setup_s": [r["setup_s"] / r["slowdown"] for r in plain],
        "wall_ref_s": [r["wall_s"] / r["slowdown"] for r in plain],
        "steps_per_ref_s": [r["steps"] / r["run_single_s"] * r["slowdown"]
                            for r in plain],
        "final_loss": [final_loss(r) for r in plain],
        "run_ok_rate": [(r["attempted"] - r["failed"]) / r["attempted"]
                        for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    return summarise(samples, units)


def as_measured(plain):
    """The unscaled times and the failure rate, printed but not scored."""
    samples = {
        "setup_s": [r["setup_s"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "steps_per_s": [r["steps"] / r["run_single_s"] for r in plain],
        "slowdown": [r["slowdown"] for r in plain],
        "run_failure_rate": [r["failed"] / r["attempted"] for r in plain],
    }
    return summarise(samples, {"setup_s": "s", "wall_s": "s",
                               "steps_per_s": "1/s",
                               "slowdown": "ratio",
                               "run_failure_rate": "ratio"})


def per_layer(results, units):
    plain = [r for r in results if r["mode"] == "plain"]
    traced = [r for r in results if r["mode"] == "trace"]
    mem = [r for r in results if r["mode"] == "tracemalloc"]
    samples = {name: [r["layers"][name] for r in traced]
               for name in traced[0]["layers"]}
    samples["instrument.flops_per_step"] = [r["flops"] / r["steps"]
                                            for r in plain]
    samples["instrument.peak_alloc"] = [r["peak_alloc"] for r in plain]
    samples["mem.tracemalloc_peak_mb"] = [r["tracemalloc_peak"] / 2 ** 20
                                          for r in mem]
    samples["trace.overhead_ratio"] = [
        statistics.median(r["wall_s"] / r["slowdown"] for r in traced)
        / statistics.median(r["wall_s"] / r["slowdown"] for r in plain)]
    return summarise(samples, units)


def self_time_shares(traced):
    totals = {}
    for res in traced:
        for name, s in res["self_s"].items():
            totals[name] = totals.get(name, 0.0) + s
    whole = sum(totals.values())
    return sorted(((s / whole, name) for name, s in totals.items()),
                  reverse=True)


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # not a git checkout; do not report an enclosing repo's
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root, workload):
    import importlib.metadata

    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "child_env": CHILD_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "config_sha256": workloads.config_sha256(root, workload),
    }


def check_layout(root, spec, workload):
    if workload not in spec["workloads"]:
        raise BenchError(f"unknown workload {workload!r}; choose from "
                         f"{sorted(spec['workloads'])}")
    needed = [os.path.join("src", "oplora", "__init__.py"),
              spec["workloads"][workload]["config"]]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        raise BenchError(f"run from the root of an oplora checkout; "
                         f"missing {missing}")


def print_table(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:10s} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_begin = time.monotonic()
    signal.signal(signal.SIGALRM, _child_timeout)
    # exit through spawn's cleanup, which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    spec = workloads.load_spec()
    try:
        check_layout(root, spec, args.workload)
        e2e_units, layer_units = load_metrics(root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # compile once up front, so that no child's set-up pays for it
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    env = environment(root, args.workload)
    run_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-"
                                     f"trace{args.trace}-{os.getpid()}")
    try:
        results, crash = run_children(args.workload, args.seed, args.seconds,
                                      bool(args.trace), run_dir, t_begin)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [r for r in results if r["mode"] == "plain"]
    traced = [r for r in results if r["mode"] == "trace"]
    if not plain or (args.trace and not traced):
        print(f"perfbench: nothing measured: {crash}", file=sys.stderr)
        return 1
    e2e = end_to_end(plain, e2e_units)
    failures = gate(results, args.workload, args.seed, spec)
    # a crashed child counts as a child whose runs all failed
    lost = results[0]["attempted"] if crash else 0
    if crash:
        failures.append(crash)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "end_to_end": e2e, "failures": failures}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"children {len(results)}  (closed loop, one child at a time)")
    print("environment " + json.dumps(env, sort_keys=True))
    measured = as_measured(plain)
    record["as_measured"] = measured
    print_table("end-to-end (median, quartiles, samples):", e2e)
    print_table("as measured, not scaled to the reference host:", measured)
    reported = e2e
    if args.trace:
        layers = per_layer(results, layer_units)
        record["per_layer"] = layers
        record["self_time_shares"] = self_time_shares(traced)
        print_table("per-layer (traced children):", layers)
        print("self-time shares of the traced spans:")
        for share, name in record["self_time_shares"][:8]:
            print(f"  {share:7.1%}  {name}")
        reported = layers
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, f"result-{args.workload}-seed"
                                     f"{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for failure in failures:
        print(f"perfbench: CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in results) + lost,
        "failed": sum(r["failed"] for r in results) + lost,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in reported.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
