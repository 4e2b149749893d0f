#!/usr/bin/env python3
"""Regenerate ``tests/golden.json``, the numbers ``tests/test_golden.py`` pins.

Usage: ``python scripts/golden.py [OUT.json]`` (default ``tests/golden.json``)

Runs, in a temporary directory, on one BLAS thread and with the
``oplora`` package of this checkout's ``src/``:

- the method grid of ``output_digest.py`` (every registered method on
  its five small cases, two seeds, 15 steps, ``"timing": false``);
- ``configs/desk_*.json`` as shipped, with ``"timing": false``, for
  their first ``DESK_STEPS`` steps.  Nothing in a run depends on
  ``steps`` but its length, so these are the first rows of the shipped
  runs; all 200 steps would take the gate over its 3 s budget.

For each run it records the manifest's ``status`` and ``error`` and the
run CSV's ``flops``, ``loss`` and ``oracle_gap`` columns (``None`` for
a failed run).  A change that regenerates the file says why in
CHANGES.md, with the ``output_diff.py`` summary of what moved.
"""

import argparse
import glob
import json
import os
import tempfile

# Sets one BLAS thread and puts this checkout's src/ first on sys.path
# (the script's own directory is already there).
from output_digest import CASES, ROOT, grid_doc

from oplora.bench.config import ExperimentConfig
from oplora.bench.methods import METHODS
from oplora.bench.runner import read_run_csv, run_experiment

DESK_CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "desk_*.json")))
DESK_STEPS = 50
DEFAULT_OUT = os.path.join(ROOT, "tests", "golden.json")


def experiments(tmp):
    """``(name, config document)`` of every pinned experiment."""
    for path in DESK_CONFIGS:
        with open(path) as fh:
            doc = json.load(fh)
        name = "configs/" + os.path.splitext(os.path.basename(path))[0]
        yield name, dict(doc, out_dir=os.path.join(tmp, name),
                         timing=False, steps=DESK_STEPS)
    for method in sorted(METHODS):
        for case in CASES:
            name = f"grid/{method}-{case}"
            yield name, grid_doc(method, case, os.path.join(tmp, name))


def collect(tmp) -> dict:
    """Run every pinned experiment under ``tmp`` and return its numbers,
    keyed ``<experiment>/<run>``."""
    out = {}
    for name, doc in experiments(tmp):
        cfg = ExperimentConfig.from_dict(doc)
        for entry in run_experiment(cfg, quiet=True)["runs"]:
            run = {"status": entry["status"], "error": entry["error"],
                   "flops": None, "loss": None, "oracle_gap": None}
            if entry["csv"] is not None:
                records = read_run_csv(os.path.join(cfg.out_dir, entry["csv"]))
                for column in ("flops", "loss", "oracle_gap"):
                    run[column] = [getattr(r, column) for r in records]
            key = f"{name}/{entry['method']}_eta{entry['eta']}_s{entry['seed']}"
            out[key] = run
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", default=DEFAULT_OUT,
                        help="where to write the JSON")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="oplora-golden-") as tmp:
        runs = collect(tmp)
    # One line per run, so a diff of the file names the runs that moved.
    lines = [f"{json.dumps(key)}: {json.dumps(runs[key])}" for key in runs]
    with open(args.out, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(runs)} runs pinned in {args.out}")


if __name__ == "__main__":
    main()
