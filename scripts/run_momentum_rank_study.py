#!/usr/bin/env python3
"""Minibatch study of the momentum rank budget.

Runs the alternating optimizer with momentum ranks {8, 16, 32} on the
column-sampled linear task against the dense-projection reference, then
reports how the final-loss gap shrinks as the momentum buffer widens.
"""

from study_driver import run_study

BASE = {
    "schema_version": 1,
    "task": {"kind": "linear", "d_out": 120, "d_in": 40, "seed": 7,
             "init": "random"},
    "method": "oplora",
    "rank": 8,
    "k": 2,
    "eta": 0.1,
    "alpha": 0.75,
    "lambda": 1e-3,
    "steps": 200,
    "seeds": [0, 1, 2, 3, 4],
    "batch": {"mode": "minibatch", "size": 16},
}

if __name__ == "__main__":
    run_study(BASE, "momentum_rank", (8, 16, 32), "mrank{}",
              "runs/momentum_rank_study")
