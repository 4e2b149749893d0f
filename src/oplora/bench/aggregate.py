"""Multi-seed aggregation: per-step median with bootstrap 95% CI.

Seed counts are tiny (typically 5), so the CI comes from a seeded
percentile bootstrap with 10 000 resamples rather than any asymptotic
formula.  It is computed exactly, without taking 10 000 medians per
step: a resample's median depends only on the multiset of seeds it
draws, and 10 000 draws of n seeds hold at most C(2n - 1, n) distinct
multisets (126 at 5 seeds).  Each step takes one median per distinct
multiset, weighted by how often it was drawn, and reads each percentile
from the cumulative weights of the sorted medians at numpy's ``linear``
interpolation position, so the CI equals ``np.percentile`` over the
10 000 medians ``np.median`` gives, NaN and infinities included.
(Where a step holds both +0.0 and -0.0, the sign of a zero bound may
differ: numpy leaves the order of tied zeros to its sort and partition.)
"""

import math

import numpy as np

AGG_HEADER = ("step,loss_median,loss_lo,loss_hi,"
              "oracle_gap_median,oracle_gap_lo,oracle_gap_hi")
N_RESAMPLES = 10_000
BOOTSTRAP_SEED = 20250101
# Steps resampled at once: a block holds (distinct multisets) x n_seeds
# x BLOCK_STEPS float64s, 160 kB at 5 seeds.
BLOCK_STEPS = 32


def f17(x) -> str:
    return format(float(x), ".17g")


def _percentile(meds, cum_w, q):
    """``np.percentile(x, q)`` per column, where ``x`` holds N_RESAMPLES
    values given as the sorted values ``meds`` with their cumulative
    counts ``cum_w``.

    numpy's ``linear`` method: the position (N_RESAMPLES - 1) q / 100
    between two order statistics, interpolated from the far end when
    its weight is at least 0.5, so inf - inf gives NaN where numpy's
    does.  Any NaN value makes the column's percentile NaN.
    """
    v = (N_RESAMPLES - 1) * (q / 100)
    k = math.floor(v)
    t = v - k
    cols = np.arange(meds.shape[1])
    a = meds[(cum_w <= k).sum(axis=0), cols]
    b = meds[(cum_w <= k + 1).sum(axis=0), cols]
    diff = b - a
    out = b - diff * (1 - t) if t >= 0.5 else a + diff * t
    out[np.isnan(meds[-1])] = np.nan
    return out


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
    # Each resample's multiset of seeds, as its sorted row.  The distinct
    # ones, ``draws``, occur ``weights`` times.
    draws = np.sort(idx, axis=1)
    draws = draws[np.lexsort(draws.T)]
    first = np.flatnonzero(np.r_[True, np.diff(draws, axis=0).any(axis=1)])
    draws, weights = draws[first], np.diff(np.r_[first, N_RESAMPLES])
    # The lower and upper middle order statistic of a sorted resample
    # (one and the same for odd n).
    mid_lo, mid_hi = (n_seeds - 1) // 2, n_seeds // 2
    lo = np.empty(n_steps)
    hi = np.empty(n_steps)
    for start in range(0, n_steps, BLOCK_STEPS):
        cols = slice(start, start + BLOCK_STEPS)
        drawn = values[draws, cols]
        drawn.sort(axis=1)
        meds = drawn[:, mid_lo]
        if mid_lo != mid_hi:
            meds = (meds + drawn[:, mid_hi]) / 2
        # A resample that draws a NaN has a NaN median; sorting puts the
        # NaN last.
        meds[np.isnan(drawn[:, -1])] = np.nan
        order = np.argsort(meds, axis=0)
        meds = np.take_along_axis(meds, order, axis=0)
        cum_w = np.cumsum(weights[order], axis=0)
        lo[cols] = _percentile(meds, cum_w, 2.5)
        hi[cols] = _percentile(meds, cum_w, 97.5)
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
