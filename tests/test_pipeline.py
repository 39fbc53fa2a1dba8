"""Tests for the experiment config and the end-to-end drivers."""

import importlib
import json
import string
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltsrepr.pipeline as pl


def tiny_config(seed=0, swa=True, epochs=8, method="crt"):
    cfg = pl.ExperimentConfig()
    return replace(
        cfg,
        dataset=replace(
            cfg.dataset, num_classes=3, input_dim=6, max_count=40, test_per_class=10
        ),
        model=replace(cfg.model, hidden_sizes=(8,), repr_dim=4),
        optim=replace(cfg.optim, epochs=epochs, batch_size=16),
        swa=replace(cfg.swa, enabled=swa, swag_samples=4),
        retrain=replace(cfg.retrain, method=method, srepr_m=3),
        run=replace(cfg.run, seed=seed),
    )


def field_values(default):
    """Values of the type of a config field with this default."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2**40, 2**40)
    if isinstance(default, float):
        return st.floats(allow_nan=False)
    if isinstance(default, tuple):
        return st.lists(st.integers(-2**20, 2**20), max_size=4).map(tuple)
    return st.text(string.ascii_letters + string.digits + "_-./%", min_size=1, max_size=12)


def section_values(section_cls):
    defaults = section_cls()
    return st.builds(section_cls, **{
        f.name: field_values(getattr(defaults, f.name)) for f in fields(section_cls)
    })


# built from the section dataclasses' fields, so a new field is covered as it lands
configs = st.builds(pl.ExperimentConfig, **{
    f.name: section_values(f.default_factory) for f in fields(pl.ExperimentConfig)
})


class TestConfigSerialization:
    def test_default_roundtrip(self):
        cfg = pl.ExperimentConfig()
        assert pl.ExperimentConfig.from_text(cfg.to_text()) == cfg

    def test_parse_serialize_parse_identity(self):
        text = """
[dataset]
num_classes = 4
max_count = 120

[optim]
lr = 0.05
epochs = 12

[swa]
enabled = false

[run]
seed = 7
seeds = 1,2,3
"""
        once = pl.ExperimentConfig.from_text(text)
        twice = pl.ExperimentConfig.from_text(once.to_text())
        assert once == twice
        assert once.dataset.num_classes == 4
        assert once.optim.lr == 0.05
        assert not once.swa.enabled
        assert once.run.seeds == (1, 2, 3)

    @settings(max_examples=200, deadline=None, database=None)
    @given(configs)
    def test_random_configs_roundtrip(self, cfg):
        # every well-typed config, valid or not, survives the INI text, the
        # dict and the JSON the checkpoint metadata holds
        assert pl.ExperimentConfig.from_text(cfg.to_text()) == cfg
        assert pl.ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert pl.ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_dict_roundtrip(self):
        cfg = tiny_config(seed=5)
        assert pl.ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            pl.ExperimentConfig.from_text("[optim]\nlearning_rate = 0.1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config sections"):
            pl.ExperimentConfig.from_text("[optimizer]\nlr = 0.1\n")

    def test_overrides_win(self):
        cfg = pl.ExperimentConfig()
        out = pl.apply_overrides(
            cfg, {"optim.lr": 0.5, "run.seed": 9, "model.hidden_sizes": (4, 4), "swa.enabled": False}
        )
        assert out.optim.lr == 0.5
        assert out.run.seed == 9
        assert out.model.hidden_sizes == (4, 4)
        assert not out.swa.enabled
        assert cfg.optim.lr == 0.1  # original untouched

    def test_none_overrides_ignored(self):
        cfg = pl.ExperimentConfig()
        assert pl.apply_overrides(cfg, {"optim.lr": None}) == cfg


class TestValidate:
    def test_default_is_valid(self):
        cfg = pl.ExperimentConfig()
        assert cfg.validate() is cfg

    @pytest.mark.parametrize("section, key, value, message", [
        ("eval", "ensemble_m", -3, "ensemble_m must be >= 0"),
        ("retrain", "epochs_frac", 0.0, "epochs_frac must be positive"),
        ("retrain", "epochs_frac", -1.0, "epochs_frac must be positive"),
        ("optim", "lr", float("nan"), "optim.lr must be positive"),
        ("optim", "momentum", 1.0, "momentum"),
        ("retrain", "srepr_m", 1, "srepr_m must be >= 2"),
        ("retrain", "balance", "magic", "retrain.balance"),
        ("dataset", "num_classes", 1, "num_classes must be >= 2"),
        ("dataset", "class_separation", 0.0, "dataset.class_separation"),
        ("swa", "start_frac", 1.0, "swa.start_frac"),
    ])
    def test_out_of_range_rejected(self, section, key, value, message):
        cfg = pl.apply_overrides(tiny_config(), {f"{section}.{key}": value})
        with pytest.raises(ValueError, match=message):
            cfg.validate()

    @pytest.mark.parametrize("epochs", [3, 4, 5, 8])
    @pytest.mark.parametrize("start_frac", [0.5, 0.75, 0.9])
    def test_capture_count_predicted(self, monkeypatch, epochs, start_frac):
        cfg = tiny_config(epochs=epochs)
        cfg = replace(cfg, swa=replace(cfg.swa, start_frac=start_frac))
        try:
            cfg.validate()
            predicted_ok = True
        except ValueError as exc:
            assert "capture" in str(exc)
            predicted_ok = False
        monkeypatch.setattr(pl.ExperimentConfig, "validate", lambda self: self)
        try:
            captured = pl.run_pretrain(cfg).posterior.count
        except ValueError as exc:
            assert "need >= 2 captured snapshots" in str(exc)
            captured = 1
        assert predicted_ok == (captured >= 2)

    def test_benchmark_configs_validate(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        for name in workloads.WORKLOADS:
            wl = workloads.make(name, 0)
            for seed in wl.program_seeds:
                wl.config(seed).validate()

    def test_traced_functions_exist(self, monkeypatch):
        # the benchmark's tracer wraps these by name; a rename would crash every traced run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import tracing

        for module, function, _, _ in tracing.TARGETS:
            assert callable(getattr(importlib.import_module(f"ltsrepr.{module}"), function, None)), (
                f"ltsrepr.{module}.{function}"
            )


class TestPretrain:
    def test_deterministic_given_seed(self):
        cfg = tiny_config(seed=3)
        a = pl.run_pretrain(cfg)
        b = pl.run_pretrain(cfg)
        assert np.array_equal(a.params.flat, b.params.flat)
        assert np.array_equal(a.posterior.mean, b.posterior.mean)
        assert a.epoch_losses == b.epoch_losses

    def test_seed_changes_outcome(self):
        a = pl.run_pretrain(tiny_config(seed=0))
        b = pl.run_pretrain(tiny_config(seed=1))
        assert not np.array_equal(a.params.flat, b.params.flat)

    def test_swa_disabled_has_no_posterior(self):
        result = pl.run_pretrain(tiny_config(swa=False))
        assert result.posterior is None

    def test_swa_posterior_capture_count(self):
        # 45 examples, batch 16 -> 3 steps/epoch; 8 epochs = 24 steps;
        # captures at epoch ends past 75% of 24 = 18: steps 21 and 24
        result = pl.run_pretrain(tiny_config(swa=True, epochs=8))
        assert result.posterior.count == 2
        assert result.posterior.frozen

    def test_loss_decreases_over_first_ten_epochs(self):
        cfg = replace(pl.ExperimentConfig(), optim=replace(pl.ExperimentConfig().optim, epochs=10))
        result = pl.run_pretrain(cfg)
        smoothed = np.convolve(result.epoch_losses, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smoothed) < 0)

    def test_mixup_path_runs(self):
        cfg = tiny_config()
        cfg = replace(cfg, optim=replace(cfg.optim, mixup_alpha=0.4))
        result = pl.run_pretrain(cfg)
        assert np.all(np.isfinite(result.params.flat))


class TestRetrain:
    @pytest.mark.parametrize("method", ["crt", "lws", "disalign", "srepr"])
    def test_methods_produce_usable_classifiers(self, method):
        cfg = tiny_config(method=method)
        ds = pl.build_datasets(cfg)
        pre = pl.run_pretrain(cfg, datasets=ds)
        result = pl.run_retrain(cfg, pre.params, pre.posterior, datasets=ds)
        report = pl.run_eval(
            cfg, result.params, result.posterior, datasets=ds, disalign_params=result.disalign
        )
        assert 0.0 <= report.acc_all <= 1.0
        assert np.isfinite(report.nll)

    def test_backbone_bitwise_frozen(self):
        cfg = tiny_config(method="srepr")
        ds = pl.build_datasets(cfg)
        pre = pl.run_pretrain(cfg, datasets=ds)
        td = pre.params.theta_dim
        before = pre.params.flat[:td].copy()
        result = pl.run_retrain(cfg, pre.params, pre.posterior, datasets=ds)
        np.testing.assert_array_equal(result.params.flat[:td], before)

    def test_srepr_without_posterior_rejected(self):
        cfg = tiny_config(method="srepr", swa=False)
        ds = pl.build_datasets(cfg)
        pre = pl.run_pretrain(cfg, datasets=ds)
        with pytest.raises(ValueError, match="posterior required"):
            pl.run_retrain(cfg, pre.params, None, datasets=ds)

    def test_retrain_epoch_budget(self):
        cfg = pl.ExperimentConfig()  # 60 epochs, 10% -> 6
        assert pl.retrain_epochs(cfg) == 6
        cfg = replace(cfg, optim=replace(cfg.optim, epochs=5))
        assert pl.retrain_epochs(cfg) == 1  # floor of one epoch

    def test_retrain_epochs_round_half_up(self):
        # same rounding rule as the data module: 25 * 0.1 = 2.5 -> 3, not 2
        cfg = pl.ExperimentConfig()
        assert pl.retrain_epochs(replace(cfg, optim=replace(cfg.optim, epochs=25))) == 3
        assert pl.retrain_epochs(replace(cfg, optim=replace(cfg.optim, epochs=4))) == 1

    def test_unknown_method_rejected(self):
        cfg = tiny_config()
        ds = pl.build_datasets(cfg)
        pre = pl.run_pretrain(cfg, datasets=ds)
        cfg = replace(cfg, retrain=replace(cfg.retrain, method="magic"))
        with pytest.raises(ValueError, match="unknown retrain method"):
            pl.run_retrain(cfg, pre.params, pre.posterior, datasets=ds)
        with pytest.raises(ValueError, match="unknown retrain method"):
            pl.run_pretrain(cfg, datasets=ds)


class TestEval:
    def test_eval_ignores_balancing_spec(self):
        # rebalancing shapes the training loss only; predictions are raw
        cfg_a = tiny_config(method="crt")
        cfg_b = replace(cfg_a, retrain=replace(cfg_a.retrain, balance="la", balance_rho=2.0))
        ds = pl.build_datasets(cfg_a)
        pre = pl.run_pretrain(cfg_a, datasets=ds)
        rep_a = pl.run_eval(cfg_a, pre.params, pre.posterior, datasets=ds)
        rep_b = pl.run_eval(cfg_b, pre.params, pre.posterior, datasets=ds)
        assert rep_a.to_json() == rep_b.to_json()

    def test_ensemble_requires_posterior(self):
        cfg = tiny_config(swa=False)
        cfg = replace(cfg, eval=replace(cfg.eval, ensemble_m=2))
        ds = pl.build_datasets(cfg)
        pre = pl.run_pretrain(cfg, datasets=ds)
        with pytest.raises(ValueError, match="posterior required"):
            pl.run_eval(cfg, pre.params, None, datasets=ds)

    def test_ensemble_point_limit(self):
        # zero posterior spread: any ensemble size equals the point report
        cfg = tiny_config(swa=True)
        ds = pl.build_datasets(cfg)
        pre = pl.run_pretrain(cfg, datasets=ds)
        pre.posterior.sigma[:] = 0.0
        point = pl.run_eval(cfg, pre.params, pre.posterior, datasets=ds)
        cfg_e = replace(cfg, eval=replace(cfg.eval, ensemble_m=3))
        ens = pl.run_eval(cfg_e, pre.params, pre.posterior, datasets=ds)
        assert point.to_json() == ens.to_json()


class TestAnalyze:
    def test_outputs_cover_test_set(self):
        cfg = tiny_config()
        ds = pl.build_datasets(cfg)
        pre = pl.run_pretrain(cfg, datasets=ds)
        result = pl.run_analyze(cfg, pre.params, pre.posterior, datasets=ds)
        n_test = ds[1].num_examples
        assert len(result.nll_per_instance) == n_test
        assert len(result.dispersion_repr) == n_test
        assert len(result.dispersion_prob) == n_test
        assert len(result.quartiles_prob.groups) == 4
        assert abs(result.diagnostics.marginal.sum() - 1.0) < 1e-9

    def test_requires_posterior(self):
        cfg = tiny_config(swa=False)
        ds = pl.build_datasets(cfg)
        pre = pl.run_pretrain(cfg, datasets=ds)
        with pytest.raises(ValueError, match="posterior"):
            pl.run_analyze(cfg, pre.params, None, datasets=ds)

    def test_deterministic_for_fixed_analysis_seed(self):
        cfg = tiny_config()
        ds = pl.build_datasets(cfg)
        pre = pl.run_pretrain(cfg, datasets=ds)
        a = pl.run_analyze(cfg, pre.params, pre.posterior, datasets=ds)
        b = pl.run_analyze(cfg, pre.params, pre.posterior, datasets=ds)
        assert np.array_equal(a.dispersion_prob, b.dispersion_prob)

    def test_zero_spread_posterior_flags_undefined_pcc(self):
        cfg = tiny_config()
        ds = pl.build_datasets(cfg)
        pre = pl.run_pretrain(cfg, datasets=ds)
        pre.posterior.sigma[:] = 0.0
        result = pl.run_analyze(cfg, pre.params, pre.posterior, datasets=ds)
        assert np.allclose(result.dispersion_prob, 0.0)
        assert not result.quartiles_prob.pcc_defined


class TestSweep:
    def test_single_seed_zero_std(self):
        cfg = replace(tiny_config(epochs=6), run=replace(tiny_config().run, seeds=(0,)))
        result = pl.run_sweep(cfg)
        assert not result.failures
        for row in result.aggregate():
            for key in pl.SWEEP_METRIC_KEYS:
                if not np.isnan(row[f"{key}_mean"]):  # absent splits stay absent
                    assert row[f"{key}_std"] == 0.0

    def test_mean_is_arithmetic_mean(self):
        cfg = replace(tiny_config(epochs=6), run=replace(tiny_config().run, seeds=(0, 1)))
        result = pl.run_sweep(cfg)
        agg = {row["method"]: row for row in result.aggregate()}
        for method in result.methods:
            values = [getattr(e["rows"][method], "acc_all") for e in result.per_seed]
            assert agg[method]["acc_all_mean"] == pytest.approx(np.mean(values), abs=1e-12)

    def test_duplicate_seeds_identical(self):
        cfg = replace(tiny_config(epochs=6), run=replace(tiny_config().run, seeds=(2, 2)))
        result = pl.run_sweep(cfg)
        rows = [e["rows"] for e in result.per_seed]
        for method in result.methods:
            assert rows[0][method].to_json() == rows[1][method].to_json()
        for row in result.aggregate():
            assert row["acc_all_std"] == 0.0
            assert row["ece_std"] == 0.0

    def test_partial_failure_reported(self):
        cfg = tiny_config(epochs=6)
        cfg = replace(
            cfg,
            retrain=replace(cfg.retrain, method="srepr"),
            swa=replace(cfg.swa, enabled=False),
            run=replace(cfg.run, seeds=(0, 1)),
        )
        result = pl.run_sweep(cfg)  # srepr without posterior fails per seed
        assert len(result.failures) == 2
        assert "posterior" in result.failures[0][1]


class TestSweepWorkers:
    def test_parallel_matches_sequential(self, monkeypatch):
        cfg = replace(tiny_config(epochs=6), run=replace(tiny_config().run, seeds=(0, 1)))
        sequential = pl.run_sweep(cfg).aggregate()
        monkeypatch.setenv("LTSREPR_THREADS", "2")
        parallel = pl.run_sweep(cfg).aggregate()
        for row_s, row_p in zip(sequential, parallel):
            assert row_s.keys() == row_p.keys()
            for key in row_s:
                np.testing.assert_equal(row_s[key], row_p[key])  # nan-aware


    def test_srepr_leaves_no_thread_before_the_pool_forks(self, monkeypatch):
        cfg = replace(tiny_config(epochs=6, method="srepr"),
                      run=replace(tiny_config().run, seeds=(0, 1)))
        before = threading.active_count()
        pre = pl.run_pretrain(cfg)
        pl.run_retrain(cfg, pre.params, pre.posterior, datasets=(pre.train, pre.test))
        assert threading.active_count() == before
        monkeypatch.setenv("LTSREPR_THREADS", "2")
        result = pl.run_sweep(cfg)
        assert not result.failures and len(result.per_seed) == 2


class TestDatasetCache:
    def test_cache_roundtrip_consistent(self, tmp_path):
        cfg = tiny_config()
        cache = tmp_path / "data.bin"
        first = pl.build_datasets(cfg, cache_path=str(cache))
        assert cache.exists()
        second = pl.build_datasets(cfg, cache_path=str(cache))
        np.testing.assert_array_equal(first[0].features, second[0].features)
        np.testing.assert_array_equal(first[1].labels, second[1].labels)
