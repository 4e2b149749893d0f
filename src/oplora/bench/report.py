"""Cross-run gap study: how close each variant tracks a reference run.

Consumes run directories produced by :func:`runner.run_experiment`
(scanned recursively for manifests), matches runs by seed against a
single-method reference set, and emits per-K and per-momentum-rank
tables of final-loss ratios and mean per-step product distances, with
monotonicity verdicts.  Product distances come from the recorded factor
trajectories, never from materialized matrices.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ReportError
from ..lowrank import FactorPair, product_distance
from .config import ExperimentConfig
from .runner import read_run_csv

MONOTONE_SLACK = 1e-10


@dataclass
class RunInfo:
    method: str
    eta: float
    seed: int
    k: int
    momentum_rank: int
    csv_path: str
    trail_path: str


def collect_runs(root) -> list:
    """All successful runs found under ``root`` (recursively)."""
    runs = []
    for dirpath, _, filenames in os.walk(root):
        if "manifest.json" not in filenames:
            continue
        path = os.path.join(dirpath, "manifest.json")
        # a damaged or hand-edited manifest is named, not half-read
        try:
            with open(path) as fh:
                manifest = json.load(fh)
            cfg = ExperimentConfig.from_dict(manifest["config"])
            entries = manifest["runs"]
        except KeyError as exc:
            raise ReportError(f"{path}: manifest has no {exc}") from exc
        except ConfigError as exc:
            raise ReportError(f"{path}: config does not parse: {exc}") from exc
        except ValueError as exc:
            raise ReportError(f"{path}: manifest does not parse: {exc}") \
                from exc
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ReportError(f"{path}: run entry {i} is not an object")
            for key in ("status", "method", "eta", "seed", "csv"):
                if key not in entry:
                    raise ReportError(f"{path}: run entry {i} has no {key!r}")
            if entry["status"] != "ok":
                continue
            trail = entry.get("trail")
            if not isinstance(entry["csv"], str):
                raise ReportError(f"{path}: run entry {i}: csv is not a string")
            if not isinstance(trail, (str, type(None))):
                raise ReportError(
                    f"{path}: run entry {i}: trail is neither null nor a string")
            trail_path = os.path.join(dirpath, trail) if trail else None
            if trail_path is not None and not os.path.isfile(trail_path):
                raise ReportError(
                    f"{path}: run entry {i}: no trail file {trail_path}")
            runs.append(RunInfo(
                method=entry["method"],
                eta=entry["eta"],
                seed=entry["seed"],
                k=cfg.k,
                momentum_rank=cfg.momentum_rank or cfg.rank,
                csv_path=os.path.join(dirpath, entry["csv"]),
                trail_path=trail_path,
            ))
    if not runs:
        raise ReportError(f"no successful runs found under {root}")
    return runs


def _load_trail(path):
    with np.load(path) as data:
        return data["u"], data["v"]


def _mean_product_distance(run: RunInfo, ref: RunInfo) -> float:
    if run.trail_path is None or ref.trail_path is None:
        raise ReportError("runs were recorded without factor trajectories")
    u_a, v_a = _load_trail(run.trail_path)
    u_b, v_b = _load_trail(ref.trail_path)
    if u_a.shape[0] != u_b.shape[0]:
        raise ReportError("trajectory lengths differ between run sets")
    dists = [product_distance(FactorPair(u_a[t], v_a[t]),
                              FactorPair(u_b[t], v_b[t]))
             for t in range(u_a.shape[0])]
    return float(np.mean(dists))


def _final_loss(run: RunInfo) -> float:
    return read_run_csv(run.csv_path)[-1].loss


def _nonincreasing(values) -> bool:
    return all(b <= a + MONOTONE_SLACK for a, b in zip(values, values[1:]))


def gap_report(method_dir, reference_dir, out_path=None) -> dict:
    """Compare grouped runs against a reference run set.

    Groups the method runs by (K, momentum_rank); every group must cover
    the same etas and seeds as the reference, and at most one of the two
    axes may take more than one value.  Returns (and optionally writes)
    a JSON document with one row per group plus monotonicity verdicts
    over K and over momentum rank.
    """
    method_runs = collect_runs(method_dir)
    ref_runs = collect_runs(reference_dir)
    ref_methods = sorted({r.method for r in ref_runs})
    if len(ref_methods) != 1:
        raise ReportError(
            f"reference directory must hold a single method, found "
            f"{ref_methods}")
    ref_by_key = {(r.eta, r.seed): r for r in ref_runs}

    groups = {}
    for run in method_runs:
        groups.setdefault((run.k, run.momentum_rank), []).append(run)
    k_values = sorted({k for k, _ in groups})
    rank_values = sorted({m_rank for _, m_rank in groups})
    if len(k_values) > 1 and len(rank_values) > 1:
        raise ReportError(
            f"runs vary both k {k_values} and momentum_rank {rank_values}; "
            f"report one axis at a time")

    rows = []
    for (k, m_rank), runs in sorted(groups.items()):
        keys = sorted((r.eta, r.seed) for r in runs)
        if keys != sorted(ref_by_key):
            raise ReportError(
                f"run set for k={k}, momentum_rank={m_rank} does not match "
                f"the reference (eta, seed) combinations")
        ratios, gaps, dists = [], [], []
        for run in runs:
            ref = ref_by_key[(run.eta, run.seed)]
            loss = _final_loss(run)
            ref_loss = _final_loss(ref)
            ratios.append(loss / ref_loss if ref_loss != 0 else float("inf")
                          if loss != 0 else 1.0)
            # absolute gap: "approaching" the reference means this shrinks,
            # whichever side of the reference the run lands on
            gaps.append(abs(loss - ref_loss))
            dists.append(_mean_product_distance(run, ref))
        rows.append({
            "k": k,
            "momentum_rank": m_rank,
            "final_loss_ratio": float(np.median(ratios)),
            "final_loss_gap": float(np.median(gaps)),
            "mean_product_distance": float(np.median(dists)),
        })

    # rows are sorted by (k, momentum_rank) and at most one axis varies
    verdict_k = None
    if len(k_values) > 1:
        verdict_k = _nonincreasing([row["mean_product_distance"]
                                    for row in rows])
    verdict_rank = None
    if len(rank_values) > 1:
        verdict_rank = _nonincreasing([row["final_loss_gap"] for row in rows])

    report = {
        "schema_version": 1,
        "reference_method": ref_methods[0],
        "rows": rows,
        "monotone_distance_in_k": verdict_k,
        "monotone_gap_in_momentum_rank": verdict_rank,
    }
    if out_path is not None:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
    return report
