"""Multi-seed aggregation: per-step median with bootstrap 95% CI.

Seed counts are tiny (typically 5), so the CI comes from a seeded
percentile bootstrap with 10 000 resamples rather than any asymptotic
formula.
"""

import numpy as np

AGG_HEADER = ("step,loss_median,loss_lo,loss_hi,"
              "oracle_gap_median,oracle_gap_lo,oracle_gap_hi")
N_RESAMPLES = 10_000
BOOTSTRAP_SEED = 20250101


def f17(x) -> str:
    return format(float(x), ".17g")


def bootstrap_median_ci(values):
    """Median and percentile-bootstrap 95% CI per column.

    ``values`` is (n_seeds, n_steps); returns (median, lo, hi) arrays of
    length n_steps.  The resampling index matrix is shared across steps
    so the whole curve is resampled consistently.
    """
    values = np.asarray(values, dtype=np.float64)
    n_seeds, n_steps = values.shape
    med = np.median(values, axis=0)
    if n_seeds == 1:
        return med, med.copy(), med.copy()
    rng = np.random.Generator(np.random.PCG64(BOOTSTRAP_SEED))
    idx = rng.integers(0, n_seeds, size=(N_RESAMPLES, n_seeds))
    lo = np.empty(n_steps)
    hi = np.empty(n_steps)
    for j in range(n_steps):
        meds = np.median(values[idx, j], axis=1)
        lo[j] = np.percentile(meds, 2.5)
        hi[j] = np.percentile(meds, 97.5)
    return med, lo, hi


def write_aggregate(path, record_sets):
    """Aggregate several runs (same method and eta, different seeds)."""
    steps = [r.step for r in record_sets[0]]
    losses = np.array([[r.loss for r in records] for records in record_sets])
    loss_med, loss_lo, loss_hi = bootstrap_median_ci(losses)
    has_gap = all(r.oracle_gap is not None
                  for records in record_sets for r in records)
    if has_gap:
        gaps = np.array([[r.oracle_gap for r in records]
                         for records in record_sets])
        gap_med, gap_lo, gap_hi = bootstrap_median_ci(gaps)
    with open(path, "w") as fh:
        fh.write(AGG_HEADER + "\n")
        for j, step in enumerate(steps):
            row = [str(step), f17(loss_med[j]), f17(loss_lo[j]),
                   f17(loss_hi[j])]
            if has_gap:
                row += [f17(gap_med[j]), f17(gap_lo[j]), f17(gap_hi[j])]
            else:
                row += ["", "", ""]
            fh.write(",".join(row) + "\n")
