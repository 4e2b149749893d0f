import json
import os
import subprocess
import sys

import numpy as np
import pytest

from oplora.bench.aggregate import AGG_HEADER, bootstrap_median_ci
from oplora.bench.cli import main as cli_main
from oplora.bench.config import ExperimentConfig, is_125_grid_value
from oplora.bench.methods import METHODS
from oplora.bench import runner
from oplora.bench.report import collect_runs, gap_report
from oplora.bench.runner import (RUN_HEADER, lr_sweep, read_run_csv,
                                 run_experiment)
from oplora import lowrank, nets, optim
from oplora.errors import (ConfigError, OploraError, ReportError,
                           StaleCaptureError)
from oplora.instrument import counters

from conftest import rng
from helpers import (product_error, reset_counters, svd_operands,
                     truncated_svd_reference)


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED_CONFIGS = sorted(name for name in os.listdir(CONFIG_DIR)
                         if name.endswith(".json"))

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

    @pytest.mark.parametrize("field,value", [
        ("record_factors", "false"), ("timing", 0), ("steps", 2.5),
        ("k", "3"), ("rank", True), ("eta", True), ("alpha", None),
        ("momentum_rank", 0), ("momentum_rank", -3), ("metric_rank", 0),
        ("seeds", [0, True]), ("out_dir", 5), ("batch", "full"),
        ("method", ["oplora"]), ("task.seed", "5"), ("task.d_out", 24.0),
        ("task.singular_values", [3.0, None]),
        ("task.singular_values", [1.0, 2.0]), ("task.singular_values", [-1.0]),
        ("momentum_rank", 17), ("metric_rank", 20), ("batch", None),
    ])
    def test_wrongly_typed_or_ranged_field_rejected(self, tmp_path, field,
                                                    value):
        doc = base_config(tmp_path)
        scope, _, key = field.rpartition(".")
        (doc[scope] if scope else doc)[key] = value
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.field == field

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
        # factor SGD at this step size overflows inside step 13's gradient
        doc = base_config(tmp_path, method="lora_sgd", eta=0.1, alpha=0.5,
                          batch={"mode": "minibatch", "size": 8})
        manifest = run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
        entry = manifest["runs"][0]
        assert entry["status"] == "failed" and entry["csv"] is None
        assert entry["error"] == ("NonFiniteError at step 13, layer 0: "
                                  "a contains non-finite entries")

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
                    reason="known fault: at the default delta the metric "
                           "EMA raises SingularMetricError on the MLP")
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
            method.step(cfg, 0.1, layer, state, None)
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
            METHODS[method].step(cfg, 0.1, layer, state, None)

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

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_config(tmp_path, method="nope"))
        assert err.value.field == "method"


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

    def test_unreadable_config_exit_one(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "missing.json"),
                         "--quiet"]) == 1

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

    def test_report_command(self, tmp_path):
        doc = base_config(tmp_path / "r1", method="svdlora", steps=6)
        assert cli_main(["run", self._write(tmp_path, doc), "--quiet"]) == 0
        code = cli_main(["report", str(tmp_path / "r1"), str(tmp_path / "r1"),
                         "--out-dir", str(tmp_path / "rep"), "--quiet"])
        assert code == 0
        assert (tmp_path / "rep" / "gap_report.json").exists()
