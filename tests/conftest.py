import os

# One BLAS thread, set before numpy loads its BLAS: the wall-clock budgets
# in the acceptance tests measure the code, not thread oversubscription
# on a small host.  An explicit setting in the environment still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from oplora.instrument import reset_counters  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_counters()
    yield


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))
