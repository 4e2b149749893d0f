"""Workload definitions: which shipped config each workload runs, and how
the benchmark seed maps to the run seeds.

The definitions live in ``workloads.json`` beside this file, together
with the reference final losses that the correctness gate checks at
benchmark seed 0.
"""

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "workloads.json")
# run seeds of benchmark seed n are the config's seeds shifted by n * SEED_STRIDE
SEED_STRIDE = 1000


def load_spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def run_seeds(base_seeds, seed):
    """Run seeds for benchmark seed ``seed``; seed 0 keeps the config's."""
    return [seed * SEED_STRIDE + s for s in base_seeds]


def config_doc(root, workload, seed, out_dir):
    """The JSON config document a workload runs at benchmark seed ``seed``."""
    spec = load_spec()["workloads"][workload]
    with open(os.path.join(root, spec["config"])) as fh:
        doc = json.load(fh)
    doc.update(spec["overrides"])
    doc["seeds"] = run_seeds(doc.get("seeds", [0]), seed)
    doc["out_dir"] = out_dir
    return doc


def config_sha256(root, workload):
    """sha256 of the canonical JSON of the workload's config as shipped
    (benchmark seed 0), without ``out_dir``."""
    doc = config_doc(root, workload, 0, "")
    del doc["out_dir"]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
