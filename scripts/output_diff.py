#!/usr/bin/env python3
"""Explain how the shipped outputs of two checkouts differ.

Usage: ``python scripts/output_diff.py OTHER_CHECKOUT``

Runs ``output_digest.run_all`` once for this checkout and once for
``OTHER_CHECKOUT`` (each in its own interpreter, with the ``oplora``
package of its own ``src/``), hashes both output trees the way
``output_digest.py`` does, and prints:

- the changed files, grouped by output directory;
- the largest relative change per output set (each shipped config,
  each study, the method grid) and CSV column, and of the factor-trail
  products ``U_t V_t^T``;
- every changed ``gap_report.json`` key;
- every run whose manifest status or error changed.

Relative change is ``|a - b| / max(|a|, |b|)`` (0 when both are 0).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SCRIPTS)
sys.path.insert(0, SCRIPTS)

from output_digest import digest  # noqa: E402


def _run_all(checkout, tmp):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import output_digest; output_digest.run_all(sys.argv[2])")
    subprocess.run([sys.executable, "-c", code,
                    os.path.join(checkout, "scripts"), tmp],
                   check=True, stdout=subprocess.DEVNULL)


def _rel(diff, scale):
    """Elementwise ``diff / scale``, 0 where ``scale`` is 0."""
    return np.where(scale > 0, diff / np.where(scale > 0, scale, 1), 0.0)


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    return header, rows


def _csv_changes(a_path, b_path):
    """Yield (column, largest relative change) for two CSVs."""
    head_a, rows_a = _read_csv(a_path)
    head_b, rows_b = _read_csv(b_path)
    if head_a != head_b or len(rows_a) != len(rows_b):
        yield "<shape>", float("inf")
        return
    for j, col in enumerate(head_a):
        try:
            a = np.array([float(r[j]) if r[j] else np.nan for r in rows_a])
            b = np.array([float(r[j]) if r[j] else np.nan for r in rows_b])
        except ValueError:  # a text column, such as a sweep status
            if any(ra[j] != rb[j] for ra, rb in zip(rows_a, rows_b)):
                yield col, float("inf")
            continue
        both = np.isfinite(a) & np.isfinite(b)
        if not np.array_equal(np.isfinite(a), np.isfinite(b)):
            yield col, float("inf")
        elif both.any():
            a, b = a[both], b[both]
            yield col, float(np.max(_rel(np.abs(a - b),
                                         np.maximum(np.abs(a), np.abs(b)))))


def _trail_change(a_path, b_path):
    """Largest relative change of a recorded product ``U_t V_t^T``."""
    with np.load(a_path) as a, np.load(b_path) as b:
        if a["u"].shape != b["u"].shape or a["v"].shape != b["v"].shape:
            return float("inf")
        pa = np.einsum("tir,tjr->tij", a["u"], a["v"])
        pb = np.einsum("tir,tjr->tij", b["u"], b["v"])
    diff, na, nb = (np.linalg.norm(x, axis=(1, 2)) for x in (pa - pb, pa, pb))
    return float(np.max(_rel(diff, np.maximum(na, nb))))


def _flat(obj, prefix=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _flat(val, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _flat(val, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _runs(path):
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    return {(r["method"], r["eta"], r["seed"]): (r["status"], r["error"])
            for r in runs}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", help="the checkout to compare against")
    args = parser.parse_args()
    other = os.path.abspath(args.other)
    with tempfile.TemporaryDirectory(prefix="oplora-diff-") as tmp:
        here, there = os.path.join(tmp, "this"), os.path.join(tmp, "other")
        with ThreadPoolExecutor(2) as pool:
            for job in [pool.submit(_run_all, ROOT, here),
                        pool.submit(_run_all, other, there)]:
                job.result()
        report(here, there, other)


def report(here, there, other):
    """Print how the output tree ``here`` differs from ``there``."""
    h_here, h_there = digest(here), digest(there)
    for name, only in (("this checkout", set(h_here) - set(h_there)),
                       (other, set(h_there) - set(h_here))):
        for rel in sorted(only):
            print(f"only in {name}: {rel}")
    changed = sorted(rel for rel in set(h_here) & set(h_there)
                     if h_here[rel] != h_there[rel])
    print(f"{len(changed)} of {len(h_here)} files changed")
    by_dir = {}
    for rel in changed:
        d, name = rel.rsplit("/", 1)
        by_dir.setdefault(d, []).append(name)
    for d, names in sorted(by_dir.items()):
        print(f"  {d}: {', '.join(names)}")

    largest = {}  # (output set, column) -> (change, file)
    for rel in changed:
        a, b = os.path.join(there, rel), os.path.join(here, rel)
        if rel.endswith(".csv"):
            changes = [(col, change) for col, change in _csv_changes(a, b)
                       if col != "wall_ms"]
        elif rel.endswith(".npz"):
            changes = [("trail product", _trail_change(a, b))]
        else:
            continue
        parts = rel.split("/")
        group = "grid" if parts[0] == "grid" else "/".join(parts[:2])
        for col, change in changes:
            if change > largest.get((group, col), (-1.0,))[0]:
                largest[group, col] = (change, rel)
    print("largest relative change per output set and column:")
    for (group, col), (change, rel) in sorted(largest.items()):
        print(f"  {group} {col}: {change:.2e} ({rel})")

    print("gap_report.json changes:")
    for rel in (r for r in changed if r.endswith("gap_report.json")):
        with open(os.path.join(there, rel)) as fh:
            old = dict(_flat(json.load(fh)))
        with open(os.path.join(here, rel)) as fh:
            new = dict(_flat(json.load(fh)))
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                print(f"  {rel} {key}: {old.get(key)!r} -> {new.get(key)!r}")

    print("manifest status or error changes:")
    for rel in (r for r in changed if r.endswith("manifest.json")):
        old = _runs(os.path.join(there, rel))
        new = _runs(os.path.join(here, rel))
        for key in sorted(set(old) | set(new), key=str):
            if old.get(key) != new.get(key):
                print(f"  {rel} {key}: {old.get(key)} -> {new.get(key)}")


if __name__ == "__main__":
    main()
