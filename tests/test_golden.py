"""The "same numbers" gate: what the methods compute is pinned.

Reruns what ``scripts/golden.py`` pins (the ``output_digest.py`` method
grid and the first steps of each desk config) and compares every run
with the committed ``tests/golden.json``: its status and error string
and its ``flops`` column exactly, its ``loss`` and ``oracle_gap``
columns to a relative tolerance.  Byte identity stays with
``scripts/output_digest.py``, since it depends on the BLAS build.  After
a deliberate change of the numbers, rerun ``scripts/golden.py``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

GOLDEN_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                             "golden.py")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden.json")
with open(GOLDEN) as _fh:
    PINNED = json.load(_fh)

# Rounding-level changes have moved the grid's losses and gaps by at
# most 7.2e-11 relative (the Gram-route truncated SVD, CHANGES.md).
RTOL = 1e-9
# An SVD init is the oracle, so its step-0 gap is 0 and may round off 0.
ATOL = 1e-12
# AdamW's first step from an SVD init divides gradient entries near 0 by
# |g| + ADAMW_EPS, so it amplifies rounding: a rounding-level change of
# the init moved this case's gap by 4.2e-7 relative (CHANGES.md, FOUND
# on ``optim._adamw_block``).
RTOL_OF = {"grid/lora_adamw-linear_svd_init": 1e-5}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The numbers as ``scripts/golden.py`` computes them now, in its own
    interpreter (it sets one BLAS thread, whatever this process runs on)."""
    out = tmp_path_factory.mktemp("golden") / "golden.json"
    proc = subprocess.run([sys.executable, GOLDEN_SCRIPT, str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        return json.load(fh)


def test_same_runs(runs):
    assert sorted(runs) == sorted(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_same_numbers(runs, key):
    got, want = runs[key], PINNED[key]
    assert (got["status"], got["error"]) == (want["status"], want["error"])
    assert got["flops"] == want["flops"]
    rtol = RTOL_OF.get(key.rsplit("/", 1)[0], RTOL)
    for column in ("loss", "oracle_gap"):
        if want[column] is None or want[column][0] is None:
            assert got[column] == want[column], column
            continue
        np.testing.assert_allclose(got[column], want[column], rtol=rtol,
                                   atol=ATOL, err_msg=column)
