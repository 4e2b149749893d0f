import json
import math
import os
from dataclasses import MISSING, fields
import runpy
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oplora.bench import aggregate
from oplora.bench import report as report_module
from oplora.bench.aggregate import (AGG_HEADER, N_RESAMPLES,
                                    bootstrap_median_ci)
from oplora.bench.cli import main as cli_main
from oplora.bench.config import (BatchSpec, ExperimentConfig, TaskSpec,
                                 is_125_grid_value)
from oplora.bench.methods import METHODS, Method
from oplora.bench import runner
from oplora.bench.report import collect_runs, gap_report
from oplora.bench.runner import (RUN_HEADER, lr_sweep, read_run_csv,
                                 run_experiment)
from oplora import lowrank, nets, optim
from oplora.errors import (ConfigError, OploraError, ReportError,
                           SingularMetricError, StaleCaptureError)
from oplora.instrument import charge, counters

from conftest import rng
from helpers import (bootstrap_median_ci_loop, product_error,
                     reset_counters, run_alone, svd_operands,
                     traced_peak_bytes, truncated_svd_reference)


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED_CONFIGS = sorted(name for name in os.listdir(CONFIG_DIR)
                         if name.endswith(".json"))
SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), "..", "scripts")
STUDY_SCRIPTS = sorted(name for name in os.listdir(SCRIPTS_DIR)
                       if name.endswith("_study.py"))

# manifest.json bytes follow this key order; OPTIONAL keys appear when set
CONFIG_KEYS = ["schema_version", "task", "method", "rank", "k", "alpha",
               "lambda", "beta", "delta", "steps", "seeds", "batch",
               "out_dir", "record_factors", "timing", "eta", "eta_grid",
               "momentum_rank", "metric_rank"]
TASK_KEYS = {
    "linear": ["kind", "seed", "d_out", "d_in", "init", "singular_values"],
    "mlp": ["kind", "seed", "dims", "nonlinearity", "loss", "n_samples"],
}
BATCH_KEYS = ["mode", "size"]
OPTIONAL = {"eta", "eta_grid", "momentum_rank", "metric_rank",
            "singular_values", "size"}


def _expected_keys(order, doc):
    return [key for key in order if key in doc or key not in OPTIONAL]


def base_config(out_dir, **overrides):
    doc = {
        "schema_version": 1,
        "task": {"kind": "linear", "d_out": 24, "d_in": 16, "seed": 5,
                 "init": "random"},
        "method": "oplora",
        "rank": 4,
        "k": 2,
        "eta": 0.5,
        "alpha": 0.0,
        "lambda": 1e-3,
        "steps": 15,
        "seeds": [0],
        "batch": {"mode": "full"},
        "out_dir": str(out_dir),
        "timing": False,
    }
    doc.update(overrides)
    return doc


class TestConfig:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = base_config(tmp_path, typo_field=1)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert "typo_field" in str(err.value)

    def test_unknown_nested_key_rejected(self, tmp_path):
        doc = base_config(tmp_path)
        doc["task"]["bogus"] = 2
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert "task.bogus" in str(err.value)

    def test_missing_schema_version(self, tmp_path):
        doc = base_config(tmp_path)
        del doc["schema_version"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_eta_and_grid_mutually_exclusive(self, tmp_path):
        doc = base_config(tmp_path, eta_grid=[0.1])
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_grid_values_must_be_125(self, tmp_path):
        doc = base_config(tmp_path)
        del doc["eta"]
        doc["eta_grid"] = [0.1, 0.3]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("grid", [[0.1, 0.1], [0.1, 0.10000000001]])
    def test_grid_values_sharing_a_run_name_rejected(self, tmp_path, grid):
        doc = base_config(tmp_path)
        del doc["eta"]
        doc["eta_grid"] = grid
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.field == "eta_grid"

    def test_grid_value_check(self):
        for x in (1.0, 0.2, 5e-4, 20.0, 2e-6):
            assert is_125_grid_value(x)
        for x in (0.3, 7.0, -0.1, 0.0, float("nan")):
            assert not is_125_grid_value(x)

    def test_duplicate_seeds_rejected(self, tmp_path):
        doc = base_config(tmp_path, seeds=[1, 1])
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_scaled_method_needs_beta(self, tmp_path):
        doc = base_config(tmp_path, method="oplora_scaled")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("method", ["oplora", "lora_sgd", "svdlora"])
    def test_beta_below_one_needs_the_scaled_method(self, tmp_path, method):
        doc = base_config(tmp_path, method=method, beta=0.9)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.field == "beta"

    def test_zero_delta_needs_beta_one(self, tmp_path):
        doc = base_config(tmp_path, method="oplora_scaled", beta=0.9,
                          delta=0.0)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.field == "delta"
        doc = base_config(tmp_path, beta=1.0, delta=0.0)
        assert ExperimentConfig.from_dict(doc).delta == 0.0

    def test_batch_size_bounded_by_columns(self, tmp_path):
        doc = base_config(tmp_path, batch={"mode": "minibatch", "size": 17})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("field", ["method", "task.kind", "batch.mode"])
    def test_missing_required_field_is_named(self, tmp_path, field):
        doc = base_config(tmp_path)
        scope, _, key = field.rpartition(".")
        del (doc[scope] if scope else doc)[key]
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.field == field

    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("name", SHIPPED_CONFIGS + ["base", "mlp"])
    def test_to_dict_key_order(self, tmp_path, name):
        if name == "base":
            doc = base_config(tmp_path)
        elif name == "mlp":
            doc = _mlp_config(tmp_path, batch={"mode": "minibatch", "size": 16})
        else:
            with open(os.path.join(CONFIG_DIR, name)) as fh:
                doc = json.load(fh)
        out = ExperimentConfig.from_dict(doc).to_dict()
        assert list(out) == _expected_keys(CONFIG_KEYS, doc)
        kind = doc["task"]["kind"]
        assert list(out["task"]) == _expected_keys(TASK_KEYS[kind],
                                                   doc["task"])
        assert list(out["batch"]) == _expected_keys(BATCH_KEYS, doc["batch"])

    @pytest.mark.parametrize("script", STUDY_SCRIPTS)
    def test_study_configs_validate(self, monkeypatch, script):
        """Each study's svdlora reference and swept variants load, without
        running the study."""
        monkeypatch.syspath_prepend(SCRIPTS_DIR)
        import study_driver
        calls = []
        monkeypatch.setattr(study_driver, "run_study",
                            lambda *args: calls.append(args))
        runpy.run_path(os.path.join(SCRIPTS_DIR, script),
                       run_name="__main__")
        [(base, key, values, _, _)] = calls
        ExperimentConfig.from_dict(dict(base, method="svdlora"))
        for value in values:
            ExperimentConfig.from_dict(dict(base, **{key: value}))

    @pytest.mark.parametrize("field,value", [
        ("record_factors", "false"), ("timing", 0), ("steps", 2.5),
        ("k", "3"), ("rank", True), ("eta", True), ("alpha", None),
        ("momentum_rank", 0), ("momentum_rank", -3), ("metric_rank", 0),
        ("seeds", [0, True]), ("out_dir", 5), ("batch", "full"),
        ("method", ["oplora"]), ("task.seed", "5"), ("task.d_out", 24.0),
        ("task.singular_values", [3.0, None]),
        ("task.singular_values", [1.0, 2.0]), ("task.singular_values", [-1.0]),
        ("momentum_rank", 17), ("metric_rank", 20), ("batch", None),
        ("seeds", [0, -1]), ("task.seed", -5), ("task.d_in", 0),
        ("task.kind", "cnn"), ("task.init", "zeros"), ("batch.mode", "half"),
        ("batch.size", 0), ("method", "adam"), ("k", 0), ("steps", 0),
        ("lambda", -1e-3), ("lambda", math.inf), ("delta", math.inf),
        ("task.singular_values", [math.inf, 1.0]),
        # JSON integers too large for a float, and run seeds too long
        # for a file name
        *(pytest.param(field, value, id=f"{field}-overflow")
          for field, value in [("eta", 10**400), ("alpha", 10**400),
                               ("lambda", 10**400), ("beta", 10**400),
                               ("delta", -10**400), ("eta_grid", [10**400]),
                               ("task.singular_values", [10**400])]),
        ("seeds", [2**64]), pytest.param("seeds", [0, 10**300],
                                         id="seeds-300-digits"),
        # a target past numpy's size limit of sys.maxsize bytes
        ("task.d_out", 10**30), ("task.d_in", 10**30),
        ("task.d_out", 2**60),
    ])
    def test_wrongly_typed_or_ranged_field_rejected(self, tmp_path, field,
                                                    value):
        doc = base_config(tmp_path)
        if field == "batch.size":
            doc["batch"] = {"mode": "minibatch"}
        if field == "eta_grid":
            del doc["eta"]
        scope, _, key = field.rpartition(".")
        (doc[scope] if scope else doc)[key] = value
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.field == field

    @pytest.mark.parametrize("field,value", [
        ("task.nonlinearity", "gelu"), ("task.loss", "hinge"),
        ("task.n_samples", 0),
        # a layer weight or activation past numpy's size limit
        ("task.dims", [10**30, 4]), ("task.dims", [6, 2**30, 2**30]),
        ("task.n_samples", 10**30), ("task.n_samples", 2**60),
    ])
    def test_wrongly_ranged_mlp_field_rejected(self, tmp_path, field, value):
        doc = _mlp_config(tmp_path)
        doc["task"][field.rpartition(".")[2]] = value
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.field == field

    @pytest.mark.parametrize("cls", [TaskSpec, BatchSpec, ExperimentConfig])
    def test_field_declarations_are_well_formed(self, cls):
        """Every metadata key is one the parser reads, and every set
        default passes its own field's choices and lower bound."""
        for f in fields(cls):
            assert set(f.metadata) <= {"key", "task", "choices", "min"}, \
                f.name
            if f.default is MISSING or f.default is None:
                continue
            choices = f.metadata.get("choices")
            assert choices is None or f.default in choices, f.name
            assert f.default >= f.metadata.get("min", f.default), f.name

    def test_trail_past_numpy_size_limit_rejected(self, tmp_path):
        """A recorded linear run's (steps, side, rank) trail block must be
        one numpy can hold; without a trail the same steps are fine."""
        doc = base_config(tmp_path, steps=2**60)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.field == "steps"
        doc["record_factors"] = False
        assert ExperimentConfig.from_dict(doc).steps == 2**60

    def test_rank_bounded_by_every_mlp_layer(self, tmp_path):
        doc = base_config(tmp_path, batch={"mode": "minibatch", "size": 16},
                          task={"kind": "mlp", "dims": [16, 2, 10],
                                "n_samples": 64})
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.field == "rank"


class TestRunExperiment:
    def test_csv_header_golden(self, tmp_path):
        assert RUN_HEADER == "step,loss,oracle_gap,flops,wall_ms"
        assert AGG_HEADER == ("step,loss_median,loss_lo,loss_hi,"
                              "oracle_gap_median,oracle_gap_lo,oracle_gap_hi")
        cfg = ExperimentConfig.from_dict(base_config(tmp_path, steps=3))
        manifest = run_experiment(cfg, quiet=True)
        path = tmp_path / manifest["runs"][0]["csv"]
        first = path.read_text().splitlines()[0]
        assert first == RUN_HEADER

    def test_reruns_are_byte_identical(self, tmp_path):
        doc = base_config(tmp_path / "a", steps=10, seeds=[3],
                          method="oplora", alpha=0.5)
        cfg_a = ExperimentConfig.from_dict(doc)
        run_experiment(cfg_a, quiet=True)
        doc["out_dir"] = str(tmp_path / "b")
        cfg_b = ExperimentConfig.from_dict(doc)
        run_experiment(cfg_b, quiet=True)
        name = "oplora_eta0.5_seed3.csv"
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()

    def test_deterministic_task_identical_across_seeds(self, tmp_path):
        doc = base_config(tmp_path, method="svdlora", steps=8,
                          seeds=[0, 1, 2, 3, 4])
        manifest = run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
        columns = []
        for entry in manifest["runs"]:
            records = read_run_csv(os.path.join(str(tmp_path), entry["csv"]))
            columns.append([r.loss for r in records])
        for col in columns[1:]:
            assert col == columns[0]

    def test_svd_init_projection_run_hits_rank_floor(self, tmp_path):
        doc = base_config(tmp_path, method="svdlora", eta=1.0, steps=3)
        doc["task"]["init"] = "svd"
        cfg = ExperimentConfig.from_dict(doc)
        manifest = run_experiment(cfg, quiet=True)
        records = read_run_csv(os.path.join(str(tmp_path),
                                            manifest["runs"][0]["csv"]))
        g = np.random.Generator(np.random.PCG64(np.random.SeedSequence([5, 0])))
        target = g.standard_normal((24, 16))
        sigma = np.linalg.svd(target, compute_uv=False)
        floor = 0.5 * float(np.sum(sigma[4:] ** 2))
        assert abs(records[1].loss - floor) <= 1e-8 * max(1.0, floor)

    def test_manifest_lists_every_combination_once(self, tmp_path):
        doc = base_config(tmp_path, seeds=[0, 1], steps=3)
        del doc["eta"]
        doc["eta_grid"] = [0.2, 0.5]
        manifest = run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
        combos = [(r["method"], r["eta"], r["seed"]) for r in manifest["runs"]]
        assert len(combos) == 4
        assert len(set(combos)) == 4
        assert all(r["status"] in ("ok", "failed") for r in manifest["runs"])

    def test_flops_column_is_monotone(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path, steps=6))
        manifest = run_experiment(cfg, quiet=True)
        records = read_run_csv(os.path.join(str(tmp_path),
                                            manifest["runs"][0]["csv"]))
        flops = [r.flops for r in records]
        assert all(b > a for a, b in zip(flops, flops[1:]))

    def test_flops_column_leaves_the_telemetry_out(self, tmp_path,
                                                   monkeypatch):
        def run(out_dir):
            cfg = ExperimentConfig.from_dict(base_config(out_dir, steps=6))
            manifest = run_experiment(cfg, quiet=True)
            return read_run_csv(os.path.join(str(out_dir),
                                             manifest["runs"][0]["csv"]))

        plain = run(tmp_path / "plain")
        # row 0 counts the first full-batch task pass alone: U V[idx]^T
        # at d_out 24, rank 4 and 16 columns
        assert plain[0].flops == 2 * 24 * 4 * 16
        real = runner.loss_and_gap

        def charging(p, ref):
            charge(flops=10 ** 6)
            return real(p, ref)

        monkeypatch.setattr(runner, "loss_and_gap", charging)
        charged = run(tmp_path / "charged")
        assert counters().flops > 6 * 10 ** 6
        assert charged == plain

    def test_killed_sweep_leaves_a_readable_manifest(self, tmp_path,
                                                     monkeypatch):
        run_single = runner.run_single
        calls = []

        def killed_on_third_run(*args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return run_single(*args)

        monkeypatch.setattr(runner, "run_single", killed_on_third_run)
        doc = base_config(tmp_path, steps=3, seeds=[0, 1, 2])
        with pytest.raises(KeyboardInterrupt):
            run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [(r["seed"], r["status"]) for r in manifest["runs"]] \
            == [(0, "ok"), (1, "ok")]
        assert [r.seed for r in collect_runs(str(tmp_path))] == [0, 1]
        assert not (tmp_path / "manifest.json.tmp").exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverging_run_is_located_in_the_manifest(self, tmp_path):
        # factor SGD at this step size diverges: the pass of step 13
        # rejects its S capture, before any layer is stepped
        doc = base_config(tmp_path, method="lora_sgd", eta=0.1, alpha=0.5,
                          batch={"mode": "minibatch", "size": 8})
        manifest = run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
        entry = manifest["runs"][0]
        assert entry["status"] == "failed" and entry["csv"] is None
        assert entry["error"] == ("NonFiniteError at step 13: "
                                  "s contains non-finite entries")

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("eta, step", [(1000.0, 51), (10000.0, 38)])
    def test_diverging_oplora_run_is_located_in_the_manifest(self, tmp_path,
                                                             eta, step):
        # the iterate overflows inside lorsum: at eta 1000 in a half-step's
        # stacked product, at eta 10000 in its Gram
        doc = base_config(tmp_path, eta=eta, steps=60)
        manifest = run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
        entry = manifest["runs"][0]
        assert entry["status"] == "failed" and entry["csv"] is None
        assert entry["error"].startswith(
            f"NonFiniteError at step {step}, layer 0: ")

    def test_mlp_run_decreases_loss(self, tmp_path):
        doc = {
            "schema_version": 1,
            "task": {"kind": "mlp", "dims": [6, 10, 3], "loss": "mse",
                     "n_samples": 64, "seed": 2},
            "method": "lora_sgd", "rank": 2, "eta": 0.2, "alpha": 0.5,
            "steps": 40, "seeds": [0], "batch": {"mode": "full"},
            "out_dir": str(tmp_path), "timing": False,
        }
        manifest = run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
        records = read_run_csv(os.path.join(str(tmp_path),
                                            manifest["runs"][0]["csv"]))
        assert records[-1].loss < 0.5 * records[0].loss
        assert records[0].oracle_gap is None


def _mlp_config(out_dir, **overrides):
    doc = base_config(out_dir, **overrides)
    doc["task"] = {"kind": "mlp", "dims": [6, 8, 4], "loss": "mse",
                   "n_samples": 64, "seed": 2}
    doc["rank"] = 2
    return doc


REGISTRY_CASES = {
    "linear_full": lambda out, **kw: base_config(out, **kw),
    "linear_minibatch": lambda out, **kw: base_config(
        out, batch={"mode": "minibatch", "size": 8}, **kw),
    "mlp_minibatch": lambda out, **kw: _mlp_config(
        out, batch={"mode": "minibatch", "size": 16}, **kw),
}


def _registry_params():
    for method in sorted(METHODS):
        for case in REGISTRY_CASES:
            marks = ()
            if method == "oplora_scaled" and case == "mlp_minibatch":
                marks = pytest.mark.xfail(
                    strict=True,
                    reason="known fault: at the default delta the weight "
                           "lorsum raises SingularMetricError on the MLP "
                           "(step 2, layer 0, V side), on the metrics the "
                           "EMA built")
            yield pytest.param(method, case, marks=marks,
                               id=f"{method}-{case}")


class TestMethodRegistry:
    @pytest.mark.parametrize("method,case", _registry_params())
    def test_every_method_runs_reproducibly(self, method, case, tmp_path):
        extra = {"beta": 0.9} if method == "oplora_scaled" else {}
        outputs = []
        for name in ("a", "b"):
            doc = REGISTRY_CASES[case](tmp_path / name, method=method,
                                       eta=0.05, alpha=0.5, **extra)
            manifest = run_experiment(ExperimentConfig.from_dict(doc),
                                      quiet=True)
            entry = manifest["runs"][0]
            assert entry["status"] == "ok", entry["error"]
            path = tmp_path / name / entry["csv"]
            records = read_run_csv(str(path))
            assert len(records) == doc["steps"]
            assert all(np.isfinite(r.loss) for r in records)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_svdlora_mlp_step_charges_its_dense_gradient(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_mlp_config(tmp_path,
                                                     method="svdlora"))
        task = nets.MlpTask([6, 8, 4], n_samples=64)
        x, y = nets.make_mlp_dataset(task, rng(0))
        layers = nets.make_mlp_layers(task, 2, rng(1))
        method = METHODS["svdlora"]
        states = [method.init(cfg, 0.1, 0, layer)[1] for layer in layers]
        nets.mlp_forward_backward(task, layers, x, y)
        reset_counters()
        for layer, state in zip(layers, states):
            method.step(cfg, 0.1, layer, state)
        # the S^T X products alone, as `full` charges them; the SVDs add on
        grad_flops = sum(2 * 64 * d_out * d_in for d_in, d_out
                         in zip(task.dims[:-1], task.dims[1:]))
        assert counters().flops >= grad_flops

    @pytest.mark.parametrize("method", ["svdlora", "full"])
    def test_dense_step_without_captures_raises(self, method, tmp_path):
        cfg = ExperimentConfig.from_dict(_mlp_config(tmp_path, method=method))
        layer = nets.make_mlp_layers(nets.MlpTask([6, 8]), 2, rng(0))[0]
        layer, state = METHODS[method].init(cfg, 0.1, 0, layer)
        with pytest.raises(StaleCaptureError):
            METHODS[method].step(cfg, 0.1, layer, state)

    @pytest.mark.parametrize("method,arrays", [("svdlora", 2), ("full", 1)])
    def test_dense_step_peak_allocation(self, method, arrays, tmp_path):
        """After a warm-up step, a dense baseline's step holds at most
        ``arrays`` d_out x d_in float64 arrays at once: svdlora its
        rebuilt iterate and eta M, `full` eta M alone.  The gradient
        goes into the momentum and the iterate is updated in place.  A
        sixteenth of one array covers the thin blocks and the
        interpreter's objects."""
        d_out, d_in, batch = 240, 60, 16
        cfg = ExperimentConfig.from_dict(base_config(
            tmp_path, method=method, alpha=0.5))
        g = rng(0)
        task = nets.LinearTask(nets.make_linear_target(d_out, d_in, g))
        layer = nets.LoraLinear(None, nets.init_adapter_random(
            d_out, d_in, 4, g))
        layer, state = METHODS[method].init(cfg, 0.1, 0, layer)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                nets.linear_task_grad(task, layer,
                                      nets.sample_batch(d_in, batch, g))
                peaks.append(traced_peak_bytes(
                    lambda: METHODS[method].step(cfg, 0.1, layer, state)))
        finally:
            tracemalloc.stop()
        full = 8 * d_out * d_in
        assert peaks[1] <= arrays * full + full // 16, (
            f"peak {peaks[1] / full:.3f} d_out x d_in arrays")

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_step_consumes_the_captures(self, method, tmp_path):
        """A second step without a new pass raises, for every method."""
        extra = {"beta": 0.9} if method == "oplora_scaled" else {}
        cfg = ExperimentConfig.from_dict(_mlp_config(
            tmp_path, method=method, alpha=0.5, **extra))
        g = rng(0)
        layer = nets.make_mlp_layers(nets.MlpTask([6, 8]), 2, g)[0]
        layer, state = METHODS[method].init(cfg, 0.1, 0, layer)
        layer.forward(g.standard_normal((4, 6)))
        layer.backward(g.standard_normal((4, 8)))
        METHODS[method].step(cfg, 0.1, layer, state)
        with pytest.raises(StaleCaptureError):
            METHODS[method].step(cfg, 0.1, layer, state)

    @pytest.mark.parametrize("case", ["linear_minibatch", "mlp_minibatch"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_each_step_is_one_optim_step(self, method, case, tmp_path,
                                         monkeypatch):
        """Every layer step of a run is one top-level call of an
        ``optim`` function whose name ends in ``_step`` (the functions
        perfbench's first-step probe wraps), and it leaves the layer
        without fresh captures."""
        extra = {"beta": 0.9} if method == "oplora_scaled" else {}
        cfg = ExperimentConfig.from_dict(REGISTRY_CASES[case](
            tmp_path, method=method, eta=0.05, alpha=0.5, steps=2, **extra))
        calls, depth = [], [0]

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if depth[0] == 0:
                    calls.append(name)
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        for name, fn in sorted(vars(optim).items()):
            if name.endswith("_step") and callable(fn):
                monkeypatch.setattr(optim, name, counted(name, fn))
        row, steps = METHODS[method], []

        def step(cfg, eta, layer, state):
            start = len(calls)
            row.step(cfg, eta, layer, state)
            try:
                nets.captures(layer)
                fresh = True
            except StaleCaptureError:
                fresh = False
            steps.append((calls[start:], fresh))

        monkeypatch.setitem(METHODS, method, Method(row.init, step))
        run_alone(cfg, cfg.eta, 0)
        n_layers = 1 if case.startswith("linear") else 2
        assert len(steps) == 2 * n_layers
        for step_calls, fresh in steps:
            assert len(step_calls) == 1, step_calls
            assert not fresh

    @pytest.mark.parametrize("case", ["linear_full", "linear_minibatch"])
    def test_svdlora_flops_do_not_depend_on_record_factors(self, case,
                                                           tmp_path):
        flops = []
        for record in (True, False):
            doc = REGISTRY_CASES[case](tmp_path / str(record),
                                       method="svdlora", eta=0.05,
                                       record_factors=record)
            manifest = run_experiment(ExperimentConfig.from_dict(doc),
                                      quiet=True)
            path = tmp_path / str(record) / manifest["runs"][0]["csv"]
            flops.append([r.flops for r in read_run_csv(str(path))])
        assert flops[0] == flops[1]

    @pytest.mark.parametrize("case", ["linear_full", "linear_minibatch"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_factor_signs_are_not_observed(self, method, case, tmp_path,
                                           monkeypatch):
        """Negating matching columns of the initial adapter's two factors
        leaves every column and trail product bit for bit unchanged: the
        methods read an adapter only through its products."""
        extra = {"beta": 0.9} if method == "oplora_scaled" else {}
        cfg = ExperimentConfig.from_dict(REGISTRY_CASES[case](
            tmp_path, method=method, eta=0.05, alpha=0.5, steps=6, **extra))
        init, starts = nets.init_adapter_random, []

        def flipped(*args):
            pair = init(*args)
            sign = np.where(np.arange(pair.rank) % 2 == 0, -1.0, 1.0)
            starts.append((pair.u, pair.u * sign))
            return lowrank.FactorPair(pair.u * sign, pair.v * sign)

        runs = [run_alone(cfg, cfg.eta, 0)]
        monkeypatch.setattr(nets, "init_adapter_random", flipped)
        runs.append(run_alone(cfg, cfg.eta, 0))
        [(u0, u0_flipped)] = starts
        assert not np.array_equal(u0, u0_flipped)
        (records, trail), (records_f, trail_f) = runs
        assert ([(r.loss, r.oracle_gap, r.flops) for r in records]
                == [(r.loss, r.oracle_gap, r.flops) for r in records_f])
        assert (trail is None) == (method == "full") == (trail_f is None)
        for (u, v), (u_f, v_f) in zip(zip(*trail or ()), zip(*trail_f or ())):
            assert np.array_equal(u @ v.T, u_f @ v_f.T)

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_config(tmp_path, method="nope"))
        assert err.value.field == "method"


# each case's REGISTRY_CASES entry and method
SHARED_SETUP_CASES = {
    "linear_random": ("linear_minibatch", "oplora"),
    "linear_svd": ("linear_minibatch", "oplora"),
    "linear_svdlora": ("linear_minibatch", "svdlora"),
    "linear_full": ("linear_minibatch", "full"),
    "mlp_oplora": ("mlp_minibatch", "oplora"),
    "mlp_full": ("mlp_minibatch", "full"),
}


def _shared_setup_config(case, out_dir):
    registry_case, method = SHARED_SETUP_CASES[case]
    doc = REGISTRY_CASES[registry_case](out_dir, method=method, alpha=0.5,
                                        steps=6, seeds=[0, 1],
                                        record_factors=True)
    if case == "linear_svd":
        doc["task"]["init"] = "svd"
    del doc["eta"]
    doc["eta_grid"] = [0.02, 0.05]
    return ExperimentConfig.from_dict(doc)


def _rows_but_wall_ms(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def _captured_setups(monkeypatch):
    """Run ``runner.run_single`` as it is, recording the set-up that
    ``run_experiment`` passes to each call."""
    run_single, setups = runner.run_single, []

    def capture(*args):
        setups.append(args[3])
        return run_single(*args)

    monkeypatch.setattr(runner, "run_single", capture)
    return setups


class TestSharedSetup:
    @pytest.mark.parametrize("case", sorted(SHARED_SETUP_CASES))
    def test_sharing_changes_no_output(self, case, tmp_path, monkeypatch):
        """Every (eta, seed) run of a sweep, which shares one set-up,
        writes the rows and trail that ``run_single`` writes alone."""
        cfg = _shared_setup_config(case, tmp_path)
        setups = _captured_setups(monkeypatch)
        manifest = run_experiment(cfg, quiet=True)
        monkeypatch.undo()
        assert len(setups) == 4
        assert all(setup is setups[0] for setup in setups)
        for entry in manifest["runs"]:
            assert entry["status"] == "ok", entry["error"]
            records, trail = run_alone(cfg, entry["eta"], entry["seed"])
            alone = tmp_path / "alone.csv"
            runner.write_run_csv(str(alone), records)
            assert (_rows_but_wall_ms(tmp_path / entry["csv"])
                    == _rows_but_wall_ms(alone))
            assert (entry["trail"] is None) == (trail is None)
            if trail is not None:
                saved = np.load(tmp_path / entry["trail"])
                assert np.array_equal(saved["u"], trail[0])
                assert np.array_equal(saved["v"], trail[1])

    @pytest.mark.parametrize("case", ["linear_full", "mlp_full"])
    def test_shared_arrays_are_read_only(self, case, tmp_path, monkeypatch):
        """A write into the shared target, base weights or initial
        factors raises, so no run can leak into the next; ``full``
        trains a copy of its dense weight and runs on regardless."""
        cfg = _shared_setup_config(case, tmp_path)
        setups = _captured_setups(monkeypatch)
        manifest = run_experiment(cfg, quiet=True)
        assert [e["status"] for e in manifest["runs"]] == ["ok"] * 4
        if case == "linear_full":
            task, pair, reference, oracle_dense = setups[0]
            shared = [task.target, pair.u, pair.v, reference.q.u,
                      reference.q.v, oracle_dense]
            layer = nets.LoraLinear(None, pair)
        else:
            task, x, y, weights = setups[0]
            shared = [x, y] + [a for w0, pair in weights
                               for a in (w0, pair.u, pair.v)]
            layer = nets.LoraLinear(*weights[0])
        for a in shared:
            with pytest.raises(ValueError, match="read-only"):
                a[0] += 1
        # full trains a dense weight of its own
        trained, _ = METHODS["full"].init(cfg, 0.05, 0, layer)
        assert trained.w0.flags.writeable
        assert not any(np.shares_memory(trained.w0, a) for a in shared)

    def test_svd_init_computes_one_truncated_svd(self, tmp_path,
                                                 monkeypatch):
        """With ``task.init`` "svd" the initial pair is the oracle: the
        set-up makes one truncated SVD of the target, not two."""
        cfg = _shared_setup_config("linear_svd", tmp_path)
        calls = []

        def counted(w, r):
            calls.append(w.shape)
            return lowrank.truncated_svd(w, r)

        for module in (runner, nets):
            monkeypatch.setattr(module, "truncated_svd", counted)
        task, pair, reference, _ = runner._LinearProblem.setup(cfg)
        assert calls == [task.target.shape]
        assert reference.q is pair


def _desk_linear_config(out_dir):
    with open(os.path.join(CONFIG_DIR, "desk_linear_minibatch.json")) as fh:
        doc = json.load(fh)
    doc.update(out_dir=str(out_dir), timing=False)
    return ExperimentConfig.from_dict(doc)


class TestTrailMemory:
    """At the desk linear shape (120 x 40, rank 8, 200 steps) a trail is
    1.95 MiB: one preallocated block per factor, filled a step at a
    time, and dropped by the sweep once its ``.npz`` is written."""

    @staticmethod
    def _peak_in_trails(cfg, call):
        tracemalloc.start()
        try:
            peak = traced_peak_bytes(call)
        finally:
            tracemalloc.stop()
        t = cfg.task
        return peak / (8 * cfg.steps * (t.d_out + t.d_in) * cfg.rank)

    def test_run_holds_one_trail(self, tmp_path):
        """A recorded run peaks at the trail plus a quarter of it; a list
        of per-step factors stacked at the end took twice the trail."""
        cfg = _desk_linear_config(tmp_path)
        ratio = self._peak_in_trails(
            cfg, lambda: run_alone(cfg, cfg.eta, cfg.seeds[0]))
        assert ratio <= 1.25, f"peak {ratio:.2f} trails"

    def test_sweep_holds_one_trail_at_a_time(self, tmp_path):
        """A 5-seed sweep peaks at one trail, the ``.npz`` writer's copy
        of its U block and the rest of the run; per-step factors stacked
        at the end, and kept through the next run, took 3.2 trails."""
        cfg = _desk_linear_config(tmp_path)
        assert len(cfg.seeds) == 5
        ratio = self._peak_in_trails(
            cfg, lambda: run_experiment(cfg, quiet=True))
        assert ratio <= 2.25, f"peak {ratio:.2f} trails"

    def test_sweep_drops_each_trail_before_the_next_run(self, tmp_path,
                                                        monkeypatch):
        """Once a run's ``.npz`` is written nothing holds its trail, so
        the next run's block does not join it."""
        cfg = _shared_setup_config("linear_random", tmp_path)
        run_single, written, alive_at_start = runner.run_single, [], []

        def tracked(*args):
            alive_at_start.append([ref() is not None for ref in written])
            records, trail = run_single(*args)
            written.extend(weakref.ref(a) for a in trail)
            return records, trail

        monkeypatch.setattr(runner, "run_single", tracked)
        manifest = run_experiment(cfg, quiet=True)
        assert all(entry["trail"] for entry in manifest["runs"])
        assert alive_at_start == [[False] * 2 * i for i in range(4)]


def _products_after_steps(method, kind, twist, tmp_path, steps=20):
    """Each layer's product (the dense weight for ``full``) after
    ``steps`` steps of ``method`` at lambda 0, from fixed random
    adapters whose factors are first mapped to ``(u R, v R^-T)``, for a
    fixed R = I + 0.5 N(0, 1) per layer, when ``twist`` is set."""
    extra = {"beta": 0.9} if method == "oplora_scaled" else {}
    cfg = ExperimentConfig.from_dict(base_config(
        tmp_path, method=method, eta=0.02, alpha=0.5, **{"lambda": 0.0},
        **extra))
    g = rng(0)
    if kind == "linear":
        task = nets.LinearTask(nets.make_linear_target(24, 16, g))
        layers = [nets.LoraLinear(None, nets.init_adapter_random(
            24, 16, 4, g))]

        def task_pass(batches):
            nets.linear_task_grad(task, layers[0],
                                  nets.sample_batch(16, 8, batches))
    else:
        task = nets.MlpTask([6, 8, 4], n_samples=64)
        x, y = nets.make_mlp_dataset(task, g)
        # random adapters: at lambda 0 a zero factor has a singular Gram
        layers = [nets.LoraLinear(layer.w0, nets.init_adapter_random(
            layer.adapter.d_out, layer.adapter.d_in, 2, g))
            for layer in nets.make_mlp_layers(task, 2, g)]

        def task_pass(batches):
            rows = nets.sample_batch(64, 16, batches)
            nets.mlp_forward_backward(task, layers, x[rows], y[rows])
    for layer in layers:
        r = np.eye(layer.adapter.rank) + 0.5 * g.standard_normal(
            (layer.adapter.rank, layer.adapter.rank))
        if twist:
            layer.adapter = lowrank.FactorPair(
                layer.adapter.u @ r, layer.adapter.v @ np.linalg.inv(r).T)
    states = []
    for i, layer in enumerate(layers):
        layers[i], state = METHODS[method].init(cfg, cfg.eta, 0, layer)
        states.append(state)
    batches = rng(1)
    for _ in range(steps):
        task_pass(batches)
        for layer, state in zip(layers, states):
            METHODS[method].step(cfg, cfg.eta, layer, state)
    return [layer.w0 if method == "full"
            else layer.adapter.u @ layer.adapter.v.T for layer in layers]


# the methods whose step reads the adapter only through U V^T at lambda 0
INVARIANT = {"full", "oplora", "oplora_proj", "oplora_scaled", "prec_lora",
             "svdlora"}


def _invariance_params():
    for method in sorted(METHODS):
        for kind in ("linear", "mlp"):
            marks = ()
            if method == "oplora_scaled":
                marks = pytest.mark.xfail(
                    strict=True, raises=SingularMetricError,
                    reason="known fault: at lambda 0 and the default delta "
                           "a U-side system turns singular within the 20 "
                           "steps, on both tasks")
            yield pytest.param(method, kind, marks=marks,
                               id=f"{method}-{kind}")


class TestReparametrizationInvariance:
    """At lambda 0 a preconditioned method's step depends on the adapter
    only through U V^T, so starting from (U R, V R^-T) for an invertible
    R ends where (U, V) does, up to rounding; the factor-wise baselines
    (SGD and AdamW on U and V) do not."""

    @pytest.mark.parametrize("method, kind", _invariance_params())
    def test_twisted_start(self, method, kind, tmp_path):
        plain = _products_after_steps(method, kind, False, tmp_path)
        twisted = _products_after_steps(method, kind, True, tmp_path)
        moved = max(np.linalg.norm(p - q) / np.linalg.norm(p)
                    for p, q in zip(plain, twisted))
        if method in INVARIANT:
            assert moved <= 1e-10
        else:
            assert moved > 1e-3


class TestShippedTruncatedSvd:
    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_every_call_takes_the_gram_route(self, name, tmp_path,
                                             monkeypatch):
        """Set-up (initial adapter, oracle) and, for the full-scale svdlora
        preset, every projection of a short run: none falls back to the
        full SVD, and each matches the full-SVD reference."""
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            doc = json.load(fh)
        doc.update(steps=min(doc["steps"], 10), seeds=doc["seeds"][:1],
                   out_dir=str(tmp_path), timing=False)
        calls = []

        def checked(w, r):
            with svd_operands() as operands:
                pair = lowrank.truncated_svd(w, r)
            ref = truncated_svd_reference(w, r)
            calls.append((any(op is w for op in operands),
                          product_error(pair, ref)))
            return pair

        for module in (runner, nets, optim):
            monkeypatch.setattr(module, "truncated_svd", checked)
        manifest = run_experiment(ExperimentConfig.from_dict(doc),
                                  quiet=True)
        assert [r["status"] for r in manifest["runs"]] == ["ok"]
        linear = doc["task"]["kind"] == "linear"
        svdlora = doc["method"] == "svdlora"
        assert len(calls) == linear * (2 + svdlora * doc["steps"])
        assert not any(fell_back for fell_back, _ in calls)
        assert all(err <= 1e-12 for _, err in calls)


class TestSweep:
    def test_single_point_grid_selects_it(self, tmp_path):
        doc = base_config(tmp_path, steps=5)
        del doc["eta"]
        doc["eta_grid"] = [0.2]
        best, _ = lr_sweep(ExperimentConfig.from_dict(doc), quiet=True)
        assert best == 0.2

    def test_ties_break_toward_smaller_eta(self, tmp_path):
        # zero target with svd init: every run sits at exactly zero loss
        doc = base_config(tmp_path, method="lora_sgd", steps=5)
        doc["task"]["singular_values"] = [0.0, 0.0, 0.0, 0.0]
        doc["task"]["init"] = "svd"
        del doc["eta"]
        doc["eta_grid"] = [0.5, 0.01, 0.1]
        best, _ = lr_sweep(ExperimentConfig.from_dict(doc), quiet=True)
        assert best == 0.01

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergent_eta_ranked_last(self, tmp_path):
        doc = base_config(tmp_path, method="lora_sgd", steps=30)
        del doc["eta"]
        doc["eta_grid"] = [1e-3, 1e-1, 1e+1]
        best, _ = lr_sweep(ExperimentConfig.from_dict(doc), quiet=True)
        assert best in (1e-3, 1e-1)
        lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "eta,score,status"
        last = lines[-1].split(",")
        assert float(last[0]) == 10.0
        assert last[2] in ("failed", "divergent")


class TestAggregate:
    def test_bootstrap_is_deterministic_and_brackets_median(self):
        g = rng(0)
        values = g.standard_normal((5, 12)) + 10.0
        med1, lo1, hi1 = bootstrap_median_ci(values)
        med2, lo2, hi2 = bootstrap_median_ci(values)
        assert np.array_equal(lo1, lo2) and np.array_equal(hi1, hi2)
        assert np.all(lo1 <= med1) and np.all(med1 <= hi1)
        assert np.allclose(med1, np.median(values, axis=0))

    def test_single_seed_ci_collapses(self):
        values = np.arange(6.0).reshape(1, 6)
        med, lo, hi = bootstrap_median_ci(values)
        assert np.array_equal(med, lo) and np.array_equal(med, hi)

    def test_aggregate_file_written(self, tmp_path):
        doc = base_config(tmp_path, seeds=[0, 1, 2], steps=4)
        run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
        lines = (tmp_path / "agg_oplora_eta0.5.csv").read_text().splitlines()
        assert lines[0] == AGG_HEADER
        assert len(lines) == 5


def _assert_same_as_loop(values, equal_nan=False):
    for got, want in zip(bootstrap_median_ci(values),
                         bootstrap_median_ci_loop(values)):
        assert np.array_equal(got, want, equal_nan=equal_nan)


def _seed_by_step(elements):
    # every entry drawn on its own, not mostly one fill value
    return arrays(np.float64, st.tuples(st.integers(1, 7),
                                        st.integers(1, 60)),
                  elements=elements, fill=st.nothing())


# Repeated values make tied ranks and tied medians; two of them are the
# signed zeros.
TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])
# A mean of two of these can overflow to inf, and inf - inf is NaN.
HUGE = st.sampled_from([np.inf, -np.inf, 1.7e308, -1.7e308])


class TestBootstrapMatchesResampling:
    """``bootstrap_median_ci`` reads the CI from resample compositions;
    it must equal the loop that takes N_RESAMPLES medians per step."""

    @settings(deadline=None, max_examples=30)
    @given(_seed_by_step(st.one_of(TIES, st.floats(-1e300, 1e300))))
    def test_finite_values(self, values):
        _assert_same_as_loop(values)

    @settings(deadline=None, max_examples=30)
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @given(_seed_by_step(st.one_of(TIES, HUGE)))
    def test_infinite_values(self, values):
        _assert_same_as_loop(values, equal_nan=True)

    @settings(deadline=None, max_examples=30)
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @given(_seed_by_step(st.one_of(TIES, HUGE, st.just(np.nan),
                                   st.floats())))
    def test_nan_values(self, values):
        _assert_same_as_loop(values, equal_nan=True)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("n_seeds", [8, 10])
    def test_many_seeds(self, n_seeds):
        g = rng(n_seeds)
        values = g.standard_normal((n_seeds, 24))
        values[:, :6] = g.choice([0.0, -0.0, 1.0, 2.0], size=(n_seeds, 6))
        values[:, 6:12] = g.choice([np.inf, -np.inf, np.nan, 1.0],
                                   size=(n_seeds, 6))
        _assert_same_as_loop(values, equal_nan=True)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_columns_across_block_boundaries(self):
        # Three blocks at 5 seeds, the last one partial; the special
        # values straddle each boundary.
        n_steps = 2 * aggregate.BLOCK_STEPS + 5
        g = rng(5)
        values = g.standard_normal((5, n_steps))
        special = g.choice([0.0, -0.0, 1.0, np.inf, -np.inf],
                           size=(5, n_steps))
        values[:, 1::3] = special[:, 1::3]
        values[2, aggregate.BLOCK_STEPS] = np.nan
        _assert_same_as_loop(values, equal_nan=True)

    def test_lower_bound_between_two_distinct_medians(self):
        # Here the 2.5% position falls between two distinct medians, and
        # numpy's interpolation from the far end rounds differently
        # from a + (b - a) t.
        column = [0.7301380732402798, 0.9091340783973793,
                  1.0310192039760147, -1.0955448172953985,
                  -0.24742477421917614, -0.4023245809505672,
                  -0.13626743684299147, 0.13593443359522644,
                  -1.745486877055901, -0.6273304591618458]
        _assert_same_as_loop(np.array(column)[:, None])

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_one_nan_median_among_finite_bounds(self):
        # One resample of the 8-seed draw takes seeds 2 and 7 four times
        # each, so its median is (-inf + inf) / 2; both percentile
        # positions fall on finite medians.
        values = np.array([0.0, 1.0, -np.inf, 3.0, 4.0, 5.0, 6.0, np.inf])
        _assert_same_as_loop(values[:, None], equal_nan=True)
        assert np.isnan(bootstrap_median_ci(values[:, None])[1:]).all()

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_drawn_too_rarely_to_be_a_median(self):
        # With 20 seeds, no resample draws one seed ten times, so no
        # median is NaN; numpy's percentile is NaN all the same.
        values = rng(4).standard_normal((20, 3))
        values[7, 1] = np.nan
        _assert_same_as_loop(values, equal_nan=True)
        assert np.isnan(bootstrap_median_ci(values)[1][1])

    def test_peak_memory_is_a_tenth_of_one_resampled_curve(self):
        # Materialising the N_RESAMPLES medians of every step would take
        # n_steps * N_RESAMPLES float64s: 160 MB at 2001 steps.
        values = rng(3).standard_normal((5, 2001))
        tracemalloc.start()
        try:
            peak = traced_peak_bytes(lambda: bootstrap_median_ci(values))
        finally:
            tracemalloc.stop()
        assert peak < values.shape[1] * N_RESAMPLES * 8 / 10

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("batch", [{"mode": "full"},
                                       {"mode": "minibatch", "size": 8}],
                             ids=["full", "minibatch"])
    def test_divergent_sweep_writes_the_loops_aggregates(self, tmp_path,
                                                         monkeypatch, batch):
        def sweep(out_dir):
            doc = base_config(out_dir, method="lora_sgd", steps=6,
                              seeds=[0, 1, 2, 3], batch=batch)
            del doc["eta"]
            doc["eta_grid"] = [1e-1, 1e+0, 2e+0, 5e+0, 1e+1]
            lr_sweep(ExperimentConfig.from_dict(doc), quiet=True)
            return {p.name: p.read_bytes()
                    for p in sorted(out_dir.glob("agg_*.csv"))}

        fast = sweep(tmp_path / "fast")
        monkeypatch.setattr(aggregate, "bootstrap_median_ci",
                            bootstrap_median_ci_loop)
        assert sweep(tmp_path / "loop") == fast
        # an ok run at the divergent eta=2 carries non-finite losses
        assert b"nan" in fast["agg_lora_sgd_eta2.csv"]


class TestGapReport:
    def _run(self, tmp_path, name, **overrides):
        doc = base_config(tmp_path / name, steps=10, seeds=[0, 1], **overrides)
        cfg = ExperimentConfig.from_dict(doc)
        run_experiment(cfg, quiet=True)
        return tmp_path / name

    def test_identical_run_sets_give_unit_ratio(self, tmp_path):
        d = self._run(tmp_path, "same", method="svdlora")
        report = gap_report(str(d), str(d))
        assert report["rows"][0]["final_loss_ratio"] == 1.0
        assert report["rows"][0]["mean_product_distance"] == 0.0

    def test_distance_nonincreasing_in_k(self, tmp_path):
        ref = self._run(tmp_path, "ref", method="svdlora")
        for k in (1, 2, 8):
            self._run(tmp_path / "var", f"k{k}", method="oplora", k=k)
        report = gap_report(str(tmp_path / "var"), str(ref),
                            str(tmp_path / "gap_report.json"))
        ks = [row["k"] for row in report["rows"]]
        assert ks == sorted(ks)
        assert report["monotone_distance_in_k"] is True
        assert (tmp_path / "gap_report.json").exists()

    def test_each_trail_is_loaded_once(self, tmp_path, monkeypatch):
        # two variant groups matched against one reference set: 4
        # variant trails and 2 reference trails, each loaded once
        ref = self._run(tmp_path, "ref", method="svdlora")
        for k in (1, 2):
            self._run(tmp_path / "var", f"k{k}", method="oplora", k=k)
        expected = gap_report(str(tmp_path / "var"), str(ref))
        load, loaded = report_module._load_trail, []

        def counted(path):
            loaded.append(path)
            return load(path)

        monkeypatch.setattr(report_module, "_load_trail", counted)
        assert gap_report(str(tmp_path / "var"), str(ref)) == expected
        assert len(loaded) == len(set(loaded)) == 6

    def test_mixed_k_and_momentum_rank_grid_rejected(self, tmp_path):
        ref = self._run(tmp_path, "ref3", method="svdlora")
        for k in (1, 2):
            for m_rank in (4, 8):
                self._run(tmp_path / "mixed", f"k{k}_m{m_rank}",
                          method="oplora", k=k, alpha=0.5,
                          momentum_rank=m_rank)
        with pytest.raises(ReportError) as err:
            gap_report(str(tmp_path / "mixed"), str(ref))
        assert "momentum_rank" in str(err.value)

    def test_mismatched_seeds_rejected(self, tmp_path):
        ref = self._run(tmp_path, "ref2", method="svdlora")
        other = self._run(tmp_path, "other", method="oplora")
        doc = base_config(tmp_path / "bad", steps=10, seeds=[5, 6])
        run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
        with pytest.raises(ReportError):
            gap_report(str(tmp_path / "bad"), str(ref))

    def _task(self, seed):
        return {"kind": "linear", "d_out": 24, "d_in": 16, "seed": seed,
                "init": "random"}

    @pytest.mark.parametrize("side", ["reference", "variants"])
    def test_two_runs_on_one_key_rejected(self, tmp_path, side):
        # two run sets on the same (eta, seed)s, one per task seed
        for seed in (0, 7):
            self._run(tmp_path / "dup", f"task{seed}", method="svdlora",
                      task=self._task(seed))
        single = self._run(tmp_path, "single", method="svdlora",
                           task=self._task(0))
        dirs = [str(single), str(tmp_path / "dup")]
        if side == "variants":
            dirs.reverse()
        with pytest.raises(ReportError) as err:
            gap_report(*dirs)
        for seed in (0, 7):
            run = collect_runs(str(tmp_path / "dup" / f"task{seed}"))[0]
            assert run.csv_path in str(err.value)

    def test_runs_on_another_task_rejected(self, tmp_path):
        ref = self._run(tmp_path, "ref", method="svdlora",
                        task=self._task(7))
        var = self._run(tmp_path, "var", method="oplora",
                        task=self._task(0))
        with pytest.raises(ReportError) as err:
            gap_report(str(var), str(ref))
        assert str(ref / "manifest.json") in str(err.value)
        assert str(var / "manifest.json") in str(err.value)

    def _single(self, tmp_path, name, **overrides):
        """The run of a one-seed set, whose CSV a report error names."""
        doc = base_config(tmp_path / name, **overrides)
        run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
        return tmp_path / name, collect_runs(str(tmp_path / name))[0]

    def test_trajectory_lengths_differ_names_both_runs(self, tmp_path):
        var, run = self._single(tmp_path, "var", method="oplora", steps=10)
        ref, ref_run = self._single(tmp_path, "ref", method="svdlora",
                                    steps=15)
        with pytest.raises(ReportError) as err:
            gap_report(str(var), str(ref))
        message = str(err.value)
        assert run.csv_path in message and ref_run.csv_path in message
        assert "10 and 15 steps" in message

    def test_runs_without_trajectories_name_both_runs(self, tmp_path):
        var, run = self._single(tmp_path, "var", method="oplora",
                                record_factors=False)
        ref, ref_run = self._single(tmp_path, "ref", method="svdlora")
        with pytest.raises(ReportError) as err:
            gap_report(str(var), str(ref))
        assert "without factor trajectories" in str(err.value)
        assert run.csv_path in str(err.value)
        assert ref_run.csv_path in str(err.value)

    @pytest.mark.parametrize("damage", [
        "truncated", "no_config", "no_runs", "entry_not_object", "no_status",
        "no_method", "no_eta", "no_seed", "no_csv", "csv_null",
        "trail_not_string", "trail_deleted", "csv_deleted", "csv_bad_row",
        "csv_header_only"])
    def test_broken_manifest_rejected_with_its_path(self, tmp_path, damage):
        d = self._run(tmp_path, "run", method="svdlora")
        path = d / "manifest.json"
        text = path.read_text()
        doc = json.loads(text)
        entry = doc["runs"][0]
        run_csv = d / entry["csv"]
        # a damaged manifest is named in a ReportError; a damaged run CSV
        # is named, with the bad line, by read_run_csv's OploraError
        named, error, where = path, ReportError, ""
        if damage == "truncated":
            path.write_text(text[:33])
        elif damage == "trail_deleted":
            os.remove(d / entry["trail"])
        elif damage == "csv_deleted":
            named, error = run_csv, OploraError
            os.remove(run_csv)
        elif damage == "csv_bad_row":
            named, error, where = run_csv, OploraError, "line 4"
            lines = run_csv.read_text().splitlines(keepends=True)
            lines[3] = "2,0.5\n"
            run_csv.write_text("".join(lines))
        elif damage == "csv_header_only":
            named, error = run_csv, OploraError
            run_csv.write_text(RUN_HEADER + "\n")
        else:
            if damage in ("no_config", "no_runs"):
                del doc[damage[len("no_"):]]
            elif damage == "entry_not_object":
                doc["runs"][0] = 3
            elif damage == "csv_null":
                entry["csv"] = None
            elif damage == "trail_not_string":
                entry["trail"] = ["u.npz", "v.npz"]
            else:
                del entry[damage[len("no_"):]]
            path.write_text(json.dumps(doc))
        with pytest.raises(error) as err:
            gap_report(str(d), str(d))
        assert str(named) in str(err.value)
        assert where in str(err.value)


class TestCli:
    def _write(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_success_exit_zero(self, tmp_path):
        path = self._write(tmp_path, base_config(tmp_path / "out", steps=3))
        assert cli_main(["run", path, "--quiet"]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_module_entry_point_runs(self, tmp_path):
        """``python -m oplora.bench`` in a fresh interpreter, importing
        the package the way a user does."""
        path = self._write(tmp_path, base_config(tmp_path / "out", steps=3))
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "oplora.bench", "run", path, "--quiet"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        csv = tmp_path / "out" / manifest["runs"][0]["csv"]
        assert len(read_run_csv(str(csv))) == 3

    def test_config_error_exit_one(self, tmp_path):
        doc = base_config(tmp_path, steps=3, rank=0)
        assert cli_main(["run", self._write(tmp_path, doc), "--quiet"]) == 1

    def test_null_number_is_a_config_error(self, tmp_path):
        doc = base_config(tmp_path, steps=3, alpha=None)
        assert cli_main(["run", self._write(tmp_path, doc), "--quiet"]) == 1

    @pytest.mark.parametrize("where", ["seeds", "task.seed",
                                       "--seed-override"])
    def test_negative_seed_exit_one(self, tmp_path, where):
        doc = base_config(tmp_path / "out", steps=3)
        extra = []
        if where == "seeds":
            doc["seeds"] = [0, -1]
        elif where == "task.seed":
            doc["task"]["seed"] = -1
        else:
            extra = ["--seed-override=3,-2"]
        path = self._write(tmp_path, doc)
        assert cli_main(["run", path, "--quiet", *extra]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["steps", "--seed-override"])
    def test_oversized_number_exit_one(self, tmp_path, where):
        """A 5000-digit integer is past Python's limit on converting a
        string to an int; a 300-digit run seed makes too long a file
        name."""
        text = json.dumps(base_config(tmp_path / "out", steps=3))
        extra = []
        if where == "steps":
            text = text.replace('"steps": 3', '"steps": ' + "9" * 5000)
        else:
            extra = ["--seed-override", "7" * 300]
        path = tmp_path / "config.json"
        path.write_text(text)
        assert cli_main(["run", str(path), "--quiet", *extra]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name,key,value", [
        ("desk_linear_minibatch.json", "d_out", 10**30),
        ("desk_mlp_minibatch.json", "dims", [16, 10**30, 32, 10]),
    ])
    def test_array_past_numpy_size_limit_exit_one(self, tmp_path, name, key,
                                                  value):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            doc = json.load(fh)
        doc["task"][key] = value
        doc["out_dir"] = str(tmp_path / "out")
        assert cli_main(["run", self._write(tmp_path, doc), "--quiet"]) == 1
        assert not (tmp_path / "out").exists()

    def test_empty_out_dir_exit_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = self._write(tmp_path, base_config("", steps=3))
        assert cli_main(["run", path, "--quiet"]) == 1
        assert os.listdir(tmp_path) == ["config.json"]

    def test_unreadable_config_exit_one(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "missing.json"),
                         "--quiet"]) == 1

    @pytest.mark.parametrize("argv", [
        ["run"], ["frobnicate"], ["run", "CONFIG", "--seed-override", "-1,2"]])
    def test_usage_error_exit_one(self, tmp_path, capsys, argv):
        path = self._write(tmp_path, base_config(tmp_path / "out", steps=3))
        argv = [path if a == "CONFIG" else a for a in argv]
        assert cli_main(argv) == 1
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_exit_zero(self, capsys):
        assert cli_main(["run", "--help"]) == 0
        assert "--seed-override" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--seed-override=", "--out-dir="])
    def test_empty_flag_value_exit_one(self, tmp_path, capsys, flag):
        path = self._write(tmp_path, base_config(tmp_path / "out", steps=3))
        assert cli_main(["run", path, "--quiet", flag]) == 1
        assert "must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_report_empty_out_dir_exit_one(self, tmp_path, monkeypatch):
        doc = base_config(tmp_path / "r1", method="svdlora", steps=6)
        assert cli_main(["run", self._write(tmp_path, doc), "--quiet"]) == 0
        monkeypatch.chdir(tmp_path)
        runs = str(tmp_path / "r1")
        assert cli_main(["report", runs, runs, "--out-dir=", "--quiet"]) == 1
        assert not (tmp_path / "gap_report.json").exists()

    def test_seed_override(self, tmp_path):
        path = self._write(tmp_path, base_config(tmp_path / "out2", steps=3))
        assert cli_main(["run", path, "--seed-override", "7,8",
                         "--quiet"]) == 0
        manifest = json.loads((tmp_path / "out2" / "manifest.json").read_text())
        assert [r["seed"] for r in manifest["runs"]] == [7, 8]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_run_failures_exit_two(self, tmp_path):
        # eta huge enough that the factors blow up to non-finite values
        doc = base_config(tmp_path / "out3", method="lora_sgd", steps=40,
                          eta=1e4)
        assert cli_main(["run", self._write(tmp_path, doc), "--quiet"]) == 2

    def test_sweep_with_every_run_failed_exit_two(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out4", method="lora_sgd")
        del doc["eta"]
        doc["eta_grid"] = [1000.0, 2000.0]
        assert cli_main(["sweep", self._write(tmp_path, doc), "--quiet"]) == 2
        assert "all sweep runs failed or diverged" in capsys.readouterr().err

    def test_report_command(self, tmp_path):
        doc = base_config(tmp_path / "r1", method="svdlora", steps=6)
        assert cli_main(["run", self._write(tmp_path, doc), "--quiet"]) == 0
        code = cli_main(["report", str(tmp_path / "r1"), str(tmp_path / "r1"),
                         "--out-dir", str(tmp_path / "rep"), "--quiet"])
        assert code == 0
        assert (tmp_path / "rep" / "gap_report.json").exists()
