#!/usr/bin/env python3
"""Hash every output the shipped experiments write, for byte-identity checks.

Usage: ``python scripts/output_digest.py OUT.json``

Runs, in a temporary directory, on one BLAS thread and with the
``oplora`` package of this checkout's ``src/``:

- every ``configs/*.json`` as shipped, with ``"timing": false``;
- every registered method on a grid of small cases (linear full batch,
  linear minibatch, linear SVD init, MLP minibatch, MLP cross-entropy),
  two seeds each, with ``"timing": false``;
- both study scripts through ``--out-dir``.  They keep timing on, so
  their run CSVs are hashed without the ``wall_ms`` column.

OUT.json maps each output file, relative to the temporary directory, to
its sha256.  Temporary paths inside ``manifest.json`` are replaced by a
placeholder before hashing.  Two checkouts with equal digests produce
byte-identical outputs.
"""

import argparse
import copy
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

# One BLAS thread, set before numpy loads: OpenBLAS's threaded kernels
# round some outputs (svdlora's run CSVs of the full-scale config)
# differently, and a byte-identity verdict must not depend on the
# caller's shell.  The study subprocesses, and the runs of
# ``output_diff.py``, inherit the setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from oplora.bench.config import ExperimentConfig  # noqa: E402
from oplora.bench.methods import METHODS  # noqa: E402
from oplora.bench.runner import RUN_HEADER, run_experiment  # noqa: E402

STUDIES = ("run_gap_study.py", "run_momentum_rank_study.py")

_LINEAR = {"kind": "linear", "d_out": 24, "d_in": 16, "seed": 5,
           "init": "random"}
_MLP = {"kind": "mlp", "dims": [6, 8, 4], "loss": "mse", "n_samples": 64,
        "seed": 2}
_MINIBATCH_8 = {"mode": "minibatch", "size": 8}
_MINIBATCH_16 = {"mode": "minibatch", "size": 16}

# case name -> (task, rank, batch)
CASES = {
    "linear_full": (_LINEAR, 4, {"mode": "full"}),
    "linear_minibatch": (_LINEAR, 4, _MINIBATCH_8),
    "linear_svd_init": (dict(_LINEAR, init="svd"), 4, _MINIBATCH_8),
    "mlp_minibatch": (_MLP, 2, _MINIBATCH_16),
    "mlp_cross_entropy": (dict(_MLP, loss="cross_entropy"), 2, _MINIBATCH_16),
}


def grid_doc(method, case, out_dir):
    task, rank, batch = CASES[case]
    doc = {
        "schema_version": 1, "task": copy.deepcopy(task), "method": method,
        "rank": rank, "k": 2, "eta": 0.1, "alpha": 0.5, "lambda": 1e-3,
        "steps": 15, "seeds": [0, 1], "batch": copy.deepcopy(batch),
        "out_dir": out_dir, "timing": False,
    }
    if method == "oplora_scaled":
        doc["beta"] = 0.9
    return doc


def run_all(tmp):
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        name = os.path.splitext(os.path.basename(path))[0]
        doc["out_dir"] = os.path.join(tmp, "configs", name)
        doc["timing"] = False
        run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
    for method in sorted(METHODS):
        for case in CASES:
            out_dir = os.path.join(tmp, "grid", f"{method}-{case}")
            run_experiment(ExperimentConfig.from_dict(
                grid_doc(method, case, out_dir)), quiet=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    for script in STUDIES:
        out_dir = os.path.join(tmp, "studies", os.path.splitext(script)[0])
        subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script),
                        "--out-dir", out_dir],
                       check=True, env=env, stdout=subprocess.DEVNULL)


def _without_wall_ms(data: bytes) -> bytes:
    lines = data.decode().splitlines(keepends=True)
    if not lines or lines[0].strip() != RUN_HEADER:
        return data
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in lines).encode()


def digest(tmp):
    out = {}
    for dirpath, _, filenames in os.walk(tmp):
        for name in filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, tmp).replace(os.sep, "/")
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.json":
                data = data.replace(tmp.encode(), b"<tmp>")
            elif rel.startswith("studies/") and name.endswith(".csv"):
                data = _without_wall_ms(data)
            out[rel] = hashlib.sha256(data).hexdigest()
    return dict(sorted(out.items()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="where to write the digest JSON")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="oplora-digest-") as tmp:
        run_all(tmp)
        hashes = digest(tmp)
    with open(args.out, "w") as fh:
        json.dump(hashes, fh, indent=1)
        fh.write("\n")
    print(f"{len(hashes)} files hashed into {args.out}")


if __name__ == "__main__":
    main()
