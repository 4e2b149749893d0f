"""``scripts/output_diff.py`` explains how two output trees differ.

``report`` is given two small hand-built trees that differ in one CSV
column, in the column signs of one factor trail (which changes the
trail's bytes but not its products) and in one manifest status.
"""

import json
import os

import numpy as np
import pytest

SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), "..", "scripts")
RUN = "oplora_eta0.1_seed0"
CSV_ROWS = [(0, 2.0, 1.5, 0), (1, 1.0, 0.5, 100)]


@pytest.fixture
def output_diff(monkeypatch):
    """The script as a module.  Importing ``output_digest`` sets the BLAS
    thread variables; monkeypatch puts them back afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            monkeypatch.setenv(var, os.environ[var])
        else:
            monkeypatch.delenv(var, raising=False)
    monkeypatch.syspath_prepend(SCRIPTS_DIR)
    import output_diff
    return output_diff


def write_tree(root, loss_scale, sign, second_status):
    out = root / "configs" / "demo"
    out.mkdir(parents=True)
    lines = ["step,loss,oracle_gap,flops,wall_ms"]
    lines += [f"{t},{loss * loss_scale!r},{gap!r},{flops},0.0"
              for t, loss, gap, flops in CSV_ROWS]
    (out / f"{RUN}.csv").write_text("\n".join(lines) + "\n")
    (out / "agg_oplora_eta0.1.csv").write_text("step,loss_median\n0,2.0\n")
    g = np.random.default_rng(0)
    u, v = g.standard_normal((2, 5, 3)), g.standard_normal((2, 4, 3))
    np.savez(out / f"{RUN}.npz", u=u * sign, v=v * sign)
    runs = [{"method": "oplora", "eta": 0.1, "seed": seed, "status": status,
             "error": None if status == "ok" else "SingularMetricError: x"}
            for seed, status in [(0, "ok"), (1, second_status)]]
    (out / "manifest.json").write_text(json.dumps({"runs": runs}))


def test_report_names_each_kind_of_change(output_diff, tmp_path, capsys):
    here, there = tmp_path / "here", tmp_path / "there"
    write_tree(there, 1.0, np.ones(3), "ok")
    write_tree(here, 1.5, np.array([-1.0, 1.0, -1.0]), "failed")
    output_diff.report(str(here), str(there), "OTHER")
    out = capsys.readouterr().out.splitlines()
    assert "3 of 4 files changed" in out
    assert f"  configs/demo: manifest.json, {RUN}.csv, {RUN}.npz" in out
    # loss 2.0 -> 3.0 and 1.0 -> 1.5: a third of the larger value
    assert f"  configs/demo loss: 3.33e-01 (configs/demo/{RUN}.csv)" in out
    assert f"  configs/demo oracle_gap: 0.00e+00 (configs/demo/{RUN}.csv)" \
        in out
    assert f"  configs/demo trail product: 0.00e+00 (configs/demo/{RUN}.npz)" \
        in out
    assert ("  configs/demo/manifest.json ('oplora', 0.1, 1): ('ok', None) "
            "-> ('failed', 'SingularMetricError: x')") in out
