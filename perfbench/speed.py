"""Host speed probes: fixed numpy/scipy kernels timed next to a workload.

On a shared host the CPU speed a process gets drifts by 20-40% over
minutes and from one second to the next, so the raw wall time of a
workload says as much about the neighbours as about the code.  Each
child times a probe in its own process before each ``run_single`` and
after the run; the benchmark scales the workload's times by
``REFERENCE_S[kind]`` over the mean probe time, giving seconds at the
speed of a reference host.

A probe mirrors the hot path of the workloads it scales, so that a
slower core slows both alike: ``small_kernels`` is an interpreter-bound
loop of rank-8 Gram products, a Python-loop Cholesky and triangular
solves (the lorsum half-step); ``dense_svd`` is the thin SVD of a
600x200 matrix (the dense oracle step).  Neither calls into ``oplora``,
so a change to the library moves the scaled times in full.
"""

import time

import numpy as np
from scipy.linalg import solve_triangular

# seconds per repetition of each probe on the reference host (a 2-vCPU
# KVM guest, Intel Xeon at 2.1 GHz, OpenBLAS on one thread)
REFERENCE_S = {"small_kernels": 1e-4, "dense_svd": 1.4e-2}
PROBE_SECONDS = 0.15


def _cholesky(a):
    n = a.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        row = low[j, :j]
        d = (a[j, j] - row @ row) ** 0.5
        low[j, j] = d
        if j + 1 < n:
            low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ row) / d
    return low


def small_kernels(reps):
    rng = np.random.default_rng(12345)
    u = rng.standard_normal((120, 8))
    v = rng.standard_normal((40, 8))
    g = rng.standard_normal((40, 16))
    eye = 1e-3 * np.eye(8)
    for _ in range(reps):
        low = _cholesky(u.T @ u + eye)
        y = solve_triangular(low, v.T @ g, lower=True)
        solve_triangular(low.T, y, lower=False)


def dense_svd(reps):
    a = np.random.default_rng(12345).standard_normal((600, 200))
    for _ in range(reps):
        np.linalg.svd(a, full_matrices=False)


PROBES = {"small_kernels": (small_kernels, 50), "dense_svd": (dense_svd, 2)}


def measure(kind, seconds=PROBE_SECONDS):
    """Seconds per repetition of probe ``kind``, over at least ``seconds``."""
    kernel, chunk = PROBES[kind]
    reps = 0
    t0 = time.perf_counter()
    while True:
        kernel(chunk)
        reps += chunk
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / reps
