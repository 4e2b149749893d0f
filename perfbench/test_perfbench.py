"""Tests of the benchmark itself: tracing leaves the numerics alone and
cleans up after itself, span arithmetic, seeds, the host speed probes,
and refusal outside a checkout.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import ast
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oplora  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oplora.bench.config import ExperimentConfig  # noqa: E402
from oplora.bench.runner import run_experiment  # noqa: E402

WORKLOADS = sorted(workloads.load_spec()["workloads"])


def _bindings():
    """Every oplora module attribute a tracer may replace."""
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "oplora" or mod_name.startswith("oplora."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(mod_name, attr)] = value
    return out


def _run(workload, out_dir):
    doc = workloads.config_doc(ROOT, workload, 0, str(out_dir))
    doc["timing"] = False
    run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
    return {name: (out_dir / name).read_bytes()
            for name in sorted(os.listdir(out_dir)) if name.endswith(".csv")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_byte_identical_csvs(workload, tmp_path):
    plain = _run(workload, tmp_path / "plain")
    before = _bindings()
    with tracer.Tracer() as tr:
        traced = _run(workload, tmp_path / "traced")
    assert len(tr.names) > 0
    assert "bench.run_single" in tr.names
    assert _bindings() == before
    assert plain and traced == plain


def test_wrappers_reach_every_namespace_and_are_removed_on_error():
    import oplora.lorsum  # noqa: F401  (the package attribute is the function)
    lorsum_mod = sys.modules["oplora.lorsum"]
    optim_mod = sys.modules["oplora.optim"]
    forward = vars(oplora.nets.LoraLinear)["forward"]
    backward = vars(oplora.nets.LoraLinear)["backward"]
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert optim_mod.lorsum is not before[("oplora.optim", "lorsum")]
            assert oplora.lorsum is optim_mod.lorsum
            assert lorsum_mod.lorsum is optim_mod.lorsum
            assert sys.modules["oplora.lowrank"].matmul.__wrapped__ \
                is before[("oplora.matcore", "matmul")]
            raise RuntimeError("boom")
    assert _bindings() == before
    assert vars(oplora.nets.LoraLinear)["forward"] is forward
    assert vars(oplora.nets.LoraLinear)["backward"] is backward


def test_summarise_self_time_and_attribution():
    # run_single [0, 10]
    #   oplora_step [1, 6]
    #     lorsum [2, 5]
    #       solve_spd [3, 4]
    #   momentum_update_lor [6, 9]
    #     lorsum [6.5, 8.5]
    names = ["bench.run_single", "optim.oplora_step", "lorsum.lorsum",
             "matcore.solve_spd", "optim.momentum_update_lor",
             "lorsum.lorsum"]
    parents = [-1, 0, 1, 2, 0, 4]
    starts = [0.0, 1.0, 2.0, 3.0, 6.0, 6.5]
    ends = [10.0, 6.0, 5.0, 4.0, 9.0, 8.5]
    layers, self_s = tracer.summarise(names, parents, starts, ends)
    assert self_s["bench.run_single"] == pytest.approx(10 - 5 - 3)
    assert self_s["optim.oplora_step"] == pytest.approx(5 - 3)
    assert self_s["lorsum.lorsum"] == pytest.approx((3 - 1) + 2)
    assert layers["lorsum.half_steps"] == 1
    assert layers["optim.weight_lorsum.total_s"] == pytest.approx(3.0)
    assert layers["optim.momentum_lorsum.total_s"] == pytest.approx(2.0)
    assert layers["optim.step.calls"] == 1
    assert layers["optim.step.p50_ms"] == pytest.approx(5000.0)
    assert layers["bench.run_single.self_s"] == pytest.approx(2.0)


def test_mlp_layers_are_keyed_by_call_order():
    # forward runs layers 0, 1, 2; backward runs them 2, 1, 0; the
    # forward under mlp_loss (no mlp_forward_backward parent) is not counted
    fwd, bwd = "nets.LoraLinear.forward", "nets.LoraLinear.backward"
    names = ["nets.mlp_forward_backward", fwd, fwd, fwd, bwd, bwd, bwd, fwd]
    parents = [-1, 0, 0, 0, 0, 0, 0, -1]
    starts = [0.0, 0.0, 1.0, 3.0, 6.0, 10.0, 15.0, 30.0]
    ends = [21.0, 1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 37.0]
    layers, _ = tracer.summarise(names, parents, starts, ends)
    assert layers["nets.mlp_forward_backward.total_s"] == pytest.approx(21.0)
    assert [layers[f"nets.layer{k}.forward_s"] for k in range(3)] \
        == pytest.approx([1.0, 2.0, 3.0])
    assert [layers[f"nets.layer{k}.backward_s"] for k in range(3)] \
        == pytest.approx([6.0, 5.0, 4.0])


def test_telemetry_skips_the_setup_oracle_svd():
    names = ["bench.run_single", "lowrank.truncated_svd",
             "lowrank.product_distance", "lowrank.truncated_svd"]
    parents = [-1, 0, 0, 0]
    starts = [0.0, 0.0, 2.0, 3.0]
    ends = [10.0, 2.0, 3.0, 7.0]
    layers, _ = tracer.summarise(names, parents, starts, ends)
    assert layers["bench.telemetry.total_s"] == pytest.approx(1.0 + 4.0)


def test_seed_zero_keeps_the_config_seeds():
    assert workloads.run_seeds([0, 1, 2], 0) == [0, 1, 2]
    shifted = workloads.run_seeds([0, 1, 2], 7)
    assert len(set(shifted) | {0, 1, 2}) == 6


def test_every_workload_has_a_probe_that_runs_without_oplora():
    spec = workloads.load_spec()["workloads"]
    assert {spec[w]["speed_probe"] for w in WORKLOADS} <= set(speed.PROBES)
    assert set(speed.PROBES) == set(speed.REFERENCE_S)
    for kind in speed.PROBES:
        assert speed.measure(kind, seconds=0.01) > 0
    with open(speed.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith("oplora") for name in imported)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
