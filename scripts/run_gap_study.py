#!/usr/bin/env python3
"""Desk-scale study of how the alternating iteration count K affects the
gap to the dense-projection reference on the deterministic linear task.

Runs the alternating optimizer at K in {1, 2, 8} plus the reference,
then emits a gap report with monotonicity verdicts.
"""

from study_driver import run_study

BASE = {
    "schema_version": 1,
    "task": {"kind": "linear", "d_out": 120, "d_in": 40, "seed": 7,
             "init": "random"},
    "method": "oplora",
    "rank": 8,
    "eta": 0.5,
    "alpha": 0.0,
    "lambda": 1e-3,
    "steps": 100,
    "seeds": [0, 1, 2, 3, 4],
    "batch": {"mode": "full"},
}

if __name__ == "__main__":
    run_study(BASE, "k", (1, 2, 8), "oplora_k{}", "runs/gap_study")
