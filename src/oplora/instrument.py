"""Process-global FLOP and allocation telemetry.

The counters are plain module state.  They exist so tests can bound the
allocations the optimizer hot paths charge (thin-matrix sizes only) and
so the benchmark harness can report cumulative work per step.  Only
matrix products and factorizations are charged; elementwise arithmetic
is not counted.  Tests check the bytes a step really allocates with
``tracemalloc``, not with these counters.
"""

from dataclasses import dataclass


@dataclass
class Counters:
    flops: int = 0
    peak_alloc: int = 0  # largest single tracked allocation, in scalars


_COUNTERS = Counters()


def counters() -> Counters:
    return _COUNTERS


def charge(flops: int = 0, alloc: int = 0) -> None:
    _COUNTERS.flops += flops
    if alloc > _COUNTERS.peak_alloc:
        _COUNTERS.peak_alloc = alloc
