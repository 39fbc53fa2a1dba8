"""Tests for the experiment config and the end-to-end drivers."""

import importlib
import inspect
import json
import string
import tempfile
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import solo_pretrain

import ltsrepr.metrics as metrics_mod
import ltsrepr.netcore as net
import ltsrepr.pipeline as pl
import ltsrepr.retrain as retrain_mod
import ltsrepr.swag as swag_mod
from ltsrepr.balancing import BalancingSpec
from ltsrepr.checkpoint import save_checkpoint
from ltsrepr.util import STREAM_ANALYSIS, STREAM_ENSEMBLE, STREAM_RETRAIN_BATCH, rng_stream


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


def pretrain(cfg):
    """Stage 1 on the config's own datasets: (model, epoch losses)."""
    return pl.run_pretrain(cfg, pl.build_datasets(cfg))


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


# any value a JSON metadata config could hold in place of a field's
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=2),
    max_leaves=4,
)


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

    @settings(max_examples=200, deadline=None, database=None)
    @given(configs, st.sampled_from(["section", "key", "value", "drop"]), st.data())
    def test_edited_metadata_read_or_rejected_by_name(self, cfg, edit, data):
        # a checkpoint's config after one edit: an unknown section or key, a
        # value of any JSON type, or a missing section. It reads as a file
        # would, or fails with a ValueError naming the section (and key).
        d = json.loads(json.dumps(cfg.to_dict()))
        section = data.draw(st.sampled_from(sorted(d)))
        names, named = st.text(min_size=1, max_size=8), []
        if edit == "section":
            name = data.draw(names.filter(lambda n: n not in d))
            d[name], named = {}, [repr(name)]
        elif edit == "drop":
            del d[section]
        else:
            if edit == "key":
                key = data.draw(names.filter(lambda n: n not in d[section]))
                named = [f"[{section}]", repr(key)]
            else:
                key = data.draw(st.sampled_from(sorted(d[section])))
                named = [f"[{section}] {key}:"]
            d[section][key] = data.draw(json_values)
        try:
            read = pl.ExperimentConfig.from_dict(d)
        except ValueError as exc:
            assert edit != "drop"
            for name in named:
                assert name in str(exc)
            return
        assert edit in ("value", "drop")  # an unknown name is never let through
        for f in fields(read):
            for sf in fields(getattr(read, f.name)):
                want = type(getattr(getattr(pl.ExperimentConfig(), f.name), sf.name))
                assert type(getattr(getattr(read, f.name), sf.name)) is want
        text = read.to_text()
        assert pl.ExperimentConfig.from_text(text).to_text() == text

    def test_dict_roundtrip(self):
        cfg = tiny_config(seed=5)
        assert pl.ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            pl.ExperimentConfig.from_text("[optim]\nlearning_rate = 0.1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config sections"):
            pl.ExperimentConfig.from_text("[optimizer]\nlr = 0.1\n")

    @pytest.mark.parametrize("text, message", [
        ("epochs = 3\n[optim]\n", "line 1: 'epochs = 3' comes before any [section] header"),
        ("[optim]\nepochs = 3\nepochs = 4\n", "line 3: [optim] epochs is set twice"),
        ("[optim]\nlr = 0.1\n[optim]\n", "line 3: [optim] appears twice"),
        ("[optim]\nlr\n", "line 2: not a [section] header, a key = value line or a comment"),
    ])
    def test_text_that_is_not_ini_is_one_line(self, tmp_path, text, message):
        with pytest.raises(ValueError) as exc:
            pl.ExperimentConfig.from_text(text)
        assert str(exc.value) == message
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            pl.ExperimentConfig.from_file(path)
        assert str(exc.value) == f"{path}, {message}"

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
        ("dataset", "input_dim", 1, "dataset.input_dim must be >= 2, got 1"),
        ("dataset", "class_separation", 0.0, "dataset.class_separation"),
        ("swa", "start_frac", 1.0, "swa.start_frac"),
        ("eval", "analysis_seed", -1, "eval.analysis_seed must be >= 0"),
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
            captured = pretrain(cfg)[0].posterior.count
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
        # its span counts read these functions' first arguments, by position or name
        from ltsrepr.checkpoint import save_checkpoint
        from ltsrepr.swag import sample_theta

        for fn, first in ((save_checkpoint, "path"), (sample_theta, "posterior")):
            assert next(iter(inspect.signature(fn).parameters)) == first, fn.__name__


class TestPretrain:
    def test_deterministic_given_seed(self):
        cfg = tiny_config(seed=3)
        (a, losses_a), (b, losses_b) = pretrain(cfg), pretrain(cfg)
        assert np.array_equal(a.params.flat, b.params.flat)
        assert np.array_equal(a.posterior.mean, b.posterior.mean)
        assert losses_a == losses_b

    def test_seed_changes_outcome(self):
        a, _ = pretrain(tiny_config(seed=0))
        b, _ = pretrain(tiny_config(seed=1))
        assert not np.array_equal(a.params.flat, b.params.flat)

    def test_swa_disabled_has_no_posterior(self):
        model, _ = pretrain(tiny_config(swa=False))
        assert model.posterior is None
        assert model.metadata["stage"] == "pretrain" and model.metadata["swa"] is False

    def test_swa_disabled_returns_the_last_sgd_weights_rounded(self, monkeypatch):
        steps = []
        sgd = pl.net.sgd_update_arrays

        def recording(arrays, grads, state, lr):
            sgd(arrays, grads, state, lr)
            steps.append(arrays[0].copy())

        monkeypatch.setattr(pl.net, "sgd_update_arrays", recording)
        model, _ = pretrain(tiny_config(swa=False))
        assert steps[-1].dtype == np.float32  # stage 1 trains in float32
        assert model.params.flat.dtype == np.float64
        assert np.array_equal(model.params.flat, steps[-1])

    def test_models_hold_float32_values_in_float64(self):
        # what a checkpoint stores, so a reloaded model is the same bits
        pre, _ = pretrain(tiny_config(swa=True))
        models = [pre, pl.run_retrain(tiny_config(method="srepr"), pre,
                                      pl.build_datasets(tiny_config()))]
        for model in models:
            post = model.posterior
            for a in (model.params.flat, post.mean, post.sq_mean, post.sigma):
                assert a.dtype == np.float64
                assert np.array_equal(a, a.astype(np.float32))
        assert np.array_equal(pre.params.flat, pre.posterior.mean)

    def test_swa_posterior_capture_count(self):
        # 45 examples, batch 16 -> 3 steps/epoch; 8 epochs = 24 steps;
        # captures at epoch ends past 75% of 24 = 18: steps 21 and 24
        model, _ = pretrain(tiny_config(swa=True, epochs=8))
        assert model.posterior.count == 2
        assert model.posterior.frozen

    def test_loss_decreases_over_first_ten_epochs(self):
        cfg = replace(pl.ExperimentConfig(), optim=replace(pl.ExperimentConfig().optim, epochs=10))
        _, epoch_losses = pretrain(cfg)
        smoothed = np.convolve(epoch_losses, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smoothed) < 0)

    def test_mixup_path_runs(self):
        cfg = tiny_config()
        cfg = replace(cfg, optim=replace(cfg.optim, mixup_alpha=0.4))
        model, _ = pretrain(cfg)
        assert np.all(np.isfinite(model.params.flat))


def with_nan(datasets, row=5, col=2):
    """``datasets`` with one NaN in the training features."""
    train, test = datasets
    features = train.features.copy()
    features[row, col] = np.nan
    return replace(train, features=features), test


def saved_bytes(model, tmp_dir):
    path = Path(tmp_dir) / "model.ckpt"
    save_checkpoint(path, model)
    return path.read_bytes()


class TestPretrainGroup:
    """Seeds trained in lock-step: every member's checkpoint and epoch
    losses are the same bits as its own run on its own parameter vector
    (`reference.solo_pretrain`)."""

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=4),
           st.sampled_from(["relu", "tanh"]), st.sampled_from([0.0, 0.4]), st.booleans())
    def test_every_member_is_its_solo_run(self, seeds, activation, mixup, swa):
        base = tiny_config(swa=swa, epochs=6)
        base = replace(base, model=replace(base.model, activation=activation),
                       optim=replace(base.optim, mixup_alpha=mixup))
        cfgs = [replace(base, run=replace(base.run, seed=seed)) for seed in seeds]
        datasets = [pl.build_datasets(cfg) for cfg in cfgs]
        results = pl.run_pretrain_group(cfgs, datasets)
        with tempfile.TemporaryDirectory() as tmp:
            for cfg, ds, (model, losses) in zip(cfgs, datasets, results):
                want_model, want_losses = solo_pretrain(cfg, ds)
                assert saved_bytes(model, tmp) == saved_bytes(want_model, tmp)
                assert losses == want_losses

    # the middle of three fails, or the first of two, and the last trains on alone
    @pytest.mark.parametrize("seeds, bad", [((0, 1, 2), 1), ((1, 5), 0)])
    def test_member_with_a_nan_fails_alone(self, tmp_path, seeds, bad):
        cfgs = [tiny_config(seed=seed) for seed in seeds]
        datasets = [pl.build_datasets(cfg) for cfg in cfgs]
        datasets[bad] = with_nan(datasets[bad])
        with pytest.raises(FloatingPointError) as solo:
            solo_pretrain(cfgs[bad], datasets[bad])
        assert str(solo.value) == "non-finite pre-activation in extractor layer 0"
        with pytest.raises(FloatingPointError) as alone:
            pl.run_pretrain(cfgs[bad], datasets[bad])
        assert str(alone.value) == str(solo.value)
        results = pl.run_pretrain_group(cfgs, datasets)
        failed = results.pop(bad)
        assert isinstance(failed, FloatingPointError) and str(failed) == str(solo.value)
        del cfgs[bad], datasets[bad]
        for cfg, ds, (model, losses) in zip(cfgs, datasets, results):
            want_model, want_losses = solo_pretrain(cfg, ds)
            assert saved_bytes(model, tmp_path) == saved_bytes(want_model, tmp_path)
            assert losses == want_losses

    def test_every_member_failing_returns_every_error(self):
        cfgs = [tiny_config(seed=seed) for seed in (3, 4)]
        results = pl.run_pretrain_group(cfgs, [with_nan(pl.build_datasets(cfg)) for cfg in cfgs])
        assert [type(r) for r in results] == [FloatingPointError] * 2

    @pytest.mark.parametrize("other", [
        replace(tiny_config(seed=1), optim=replace(tiny_config().optim, lr=0.05)),
        replace(tiny_config(seed=1), run=replace(tiny_config().run, seed=1, output_dir="x")),
    ])
    def test_configs_differing_beyond_the_seed_rejected(self, other):
        cfgs = [tiny_config(seed=0), other]
        with pytest.raises(ValueError, match="may differ only in run.seed"):
            pl.run_pretrain_group(cfgs, [pl.build_datasets(cfg) for cfg in cfgs])


class TestRetrain:
    @pytest.mark.parametrize("method", ["crt", "lws", "disalign", "srepr"])
    def test_methods_produce_usable_classifiers(self, method):
        cfg = tiny_config(method=method)
        ds = pl.build_datasets(cfg)
        pre, _ = pl.run_pretrain(cfg, ds)
        model = pl.run_retrain(cfg, pre, ds)
        report = pl.run_eval(cfg, model, ds)
        assert 0.0 <= report.acc_all <= 1.0
        assert np.isfinite(report.nll)
        assert model.metadata["stage"] == "retrain" and model.metadata["method"] == method
        assert ("lws_tau" in model.metadata) == (method == "lws")
        assert (model.calibration() is not None) == (method == "disalign")

    def test_backbone_bitwise_frozen(self):
        cfg = tiny_config(method="srepr")
        ds = pl.build_datasets(cfg)
        pre, _ = pl.run_pretrain(cfg, ds)
        td = pre.params.theta_dim
        before = pre.params.flat[:td].copy()
        model = pl.run_retrain(cfg, pre, ds)
        np.testing.assert_array_equal(model.params.flat[:td], before)

    @pytest.mark.parametrize("method", ["crt", "lws", "disalign", "srepr"])
    def test_tanh_model_retrains_on_its_tanh_forward(self, method):
        # run_retrain forwards the training split with the model's
        # activation: on a tanh extractor the head is the method's own on
        # features(theta, x, "tanh"), bit for bit, and differs from the head
        # trained on the relu forward (srepr's members are tanh either way)
        cfg = tiny_config(method=method)
        cfg = replace(cfg, model=replace(cfg.model, activation="tanh"))
        ds = pl.build_datasets(cfg)
        pre, _ = pl.run_pretrain(cfg, ds)
        model = pl.run_retrain(cfg, pre, ds)
        train, theta, phi = ds[0], pre.params.layers, (pre.params.w, pre.params.b)
        spec = BalancingSpec(cfg.retrain.balance, cfg.retrain.balance_rho, train.frequencies)
        optim = replace(cfg.optim, lr=cfg.retrain.lr, epochs=pl.retrain_epochs(cfg))

        def stored(w, b):  # the classifier as the checkpoint holds it
            return [np.asarray(a, np.float32).astype(np.float64) for a in (w, b)]

        def head(activation):
            feats = net.features(theta, train.features, activation)
            rng = rng_stream(cfg.run.seed, STREAM_RETRAIN_BATCH)
            if method == "crt":
                return stored(*retrain_mod.crt(feats, train, spec, optim, rng))
            if method == "lws":
                w, b, tau = retrain_mod.lws(feats, phi, train, spec, optim, rng)
                return [*stored(w, b), np.array(tau)]
            if method == "disalign":
                calib = retrain_mod.disalign(feats, phi, train, optim, rng,
                                             rho=cfg.retrain.balance_rho)
                return [calib.scale, calib.shift, calib.gate_w, np.array(calib.gate_b)]
            return stored(*retrain_mod.srepr_retrain(feats, theta, pre.posterior, phi, train,
                                                     spec, cfg.retrain, optim, rng, "tanh"))

        if method == "lws":
            got = [model.params.w, model.params.b, np.array(model.metadata["lws_tau"])]
        elif method == "disalign":
            calib = model.calibration()
            got = [calib.scale, calib.shift, calib.gate_w, np.array(calib.gate_b)]
        else:
            got = [model.params.w, model.params.b]
        want, relu = head("tanh"), head("relu")
        assert all(g.tobytes() == t.tobytes() for g, t in zip(got, want, strict=True))
        assert any(g.tobytes() != r.tobytes() for g, r in zip(got, relu, strict=True))

    def test_srepr_without_posterior_rejected(self):
        cfg = tiny_config(method="srepr", swa=False)
        ds = pl.build_datasets(cfg)
        pre, _ = pl.run_pretrain(cfg, ds)
        with pytest.raises(ValueError, match="posterior required"):
            pl.run_retrain(cfg, pre, ds)

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
        pre, _ = pl.run_pretrain(cfg, ds)
        cfg = replace(cfg, retrain=replace(cfg.retrain, method="magic"))
        with pytest.raises(ValueError, match="unknown retrain method"):
            pl.run_retrain(cfg, pre, ds)
        with pytest.raises(ValueError, match="unknown retrain method"):
            pl.run_pretrain(cfg, ds)


class TestEval:
    def test_eval_ignores_balancing_spec(self):
        # rebalancing shapes the training loss only; predictions are raw
        cfg_a = tiny_config(method="crt")
        cfg_b = replace(cfg_a, retrain=replace(cfg_a.retrain, balance="la", balance_rho=2.0))
        ds = pl.build_datasets(cfg_a)
        pre, _ = pl.run_pretrain(cfg_a, ds)
        rep_a = pl.run_eval(cfg_a, pre, ds)
        rep_b = pl.run_eval(cfg_b, pre, ds)
        assert rep_a.to_json_dict() == rep_b.to_json_dict()

    def test_ensemble_requires_posterior(self):
        cfg = tiny_config(swa=False)
        cfg = replace(cfg, eval=replace(cfg.eval, ensemble_m=2))
        ds = pl.build_datasets(cfg)
        pre, _ = pl.run_pretrain(cfg, ds)
        with pytest.raises(ValueError, match="posterior required"):
            pl.run_eval(cfg, pre, ds)

    def test_ensemble_point_limit(self):
        # zero posterior spread: every member is the point model, forwarded
        # in float32 as the point predictions are, so the ensemble is the
        # mean of M copies of the point probabilities. That mean is not
        # always the point value itself (the mean of three equal doubles
        # can round away from them), so compare with it.
        cfg = tiny_config(swa=True)
        ds = pl.build_datasets(cfg)
        pre, _ = pl.run_pretrain(cfg, ds)
        pre.posterior.sigma[:] = 0.0
        params, test = pre.params, ds[1]
        point = metrics_mod.point_probs(test.features, params, "relu")
        for m in (1, 2, 3):
            ens = metrics_mod.ensemble_predict(test.features, pre.posterior, params.w, params.b,
                                               m, np.random.default_rng(m), "relu")
            assert ens.tobytes() == np.stack([point] * m).mean(axis=0).tobytes()
        # and run_eval reports that mean
        expected = metrics_mod.evaluate_probs(np.stack([point] * 3).mean(axis=0), test.labels,
                                              ds[0].splits, cfg.eval.ece_bins)
        cfg_e = replace(cfg, eval=replace(cfg.eval, ensemble_m=3))
        assert pl.run_eval(cfg_e, pre, ds).to_json_dict() == expected.to_json_dict()


class TestFloat32Forward:
    """eval and analyze forward every extractor, each posterior member and
    the point model, in float32, and widen its representations into the
    float64 head's input."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_representations_are_float32_forwards(self, activation, monkeypatch):
        cfg = tiny_config()
        cfg = replace(cfg, model=replace(cfg.model, activation=activation),
                      eval=replace(cfg.eval, ensemble_m=3))
        ds = pl.build_datasets(cfg)
        model, _ = pl.run_pretrain(cfg, ds)
        post, params = model.posterior, model.params
        x32 = ds[1].features.astype(np.float32)

        def forward(theta):
            # the extractor ``theta``, rounded to float32, on float32 inputs
            layers = swag_mod.extractor_layers(post, theta.astype(np.float32))
            return net.features(layers, x32, activation).astype(np.float64).tobytes()

        def members(rng, m):
            draw, reps = np.empty(post.theta_dim), []
            for _ in range(m):
                swag_mod.sample_theta(post, rng, draw)
                reps.append(forward(draw))
            return reps

        point = forward(params.flat[: params.theta_dim])
        seen = []  # every representation the head scores, in order
        class_probs = metrics_mod.class_probs

        def spy(reps, *args):
            assert reps.dtype == np.float64
            seen.append(reps.tobytes())
            return class_probs(reps, *args)

        monkeypatch.setattr(metrics_mod, "class_probs", spy)
        pl.run_eval(cfg, model, ds)
        assert seen == members(rng_stream(cfg.run.seed, STREAM_ENSEMBLE), 3)
        seen.clear()
        pl.run_eval(replace(cfg, eval=replace(cfg.eval, ensemble_m=0)), model, ds)
        assert seen == [point]
        seen.clear()
        pl.run_analyze(cfg, model, ds)
        analysis_rng = rng_stream(cfg.eval.analysis_seed, STREAM_ANALYSIS)
        assert seen == members(analysis_rng, cfg.swa.swag_samples) + [point]


class TestAnalyze:
    def test_outputs_cover_test_set(self):
        cfg = tiny_config()
        ds = pl.build_datasets(cfg)
        pre, _ = pl.run_pretrain(cfg, ds)
        result = pl.run_analyze(cfg, pre, ds)
        n_test = ds[1].num_examples
        assert len(result.nll_per_instance) == n_test
        assert len(result.dispersion_repr) == n_test
        assert len(result.dispersion_prob) == n_test
        assert len(result.quartiles_prob.groups) == 4
        assert len(result.report.per_class_weight_norm) == ds[1].num_classes
        assert abs(sum(result.report.per_class_marginal) - 1.0) < 1e-9

    def test_requires_posterior(self):
        cfg = tiny_config(swa=False)
        ds = pl.build_datasets(cfg)
        pre, _ = pl.run_pretrain(cfg, ds)
        with pytest.raises(ValueError, match="posterior"):
            pl.run_analyze(cfg, pre, ds)

    def test_deterministic_for_fixed_analysis_seed(self):
        cfg = tiny_config()
        ds = pl.build_datasets(cfg)
        pre, _ = pl.run_pretrain(cfg, ds)
        a = pl.run_analyze(cfg, pre, ds)
        b = pl.run_analyze(cfg, pre, ds)
        assert np.array_equal(a.dispersion_prob, b.dispersion_prob)

    def test_disalign_calibration_matches_eval(self):
        # the library twin of the CLI test: analyze's point predictions are eval's
        cfg = tiny_config(method="disalign")
        ds = pl.build_datasets(cfg)
        model = pl.run_retrain(cfg, pl.run_pretrain(cfg, ds)[0], ds)
        assert cfg.eval.ensemble_m == 0
        report = pl.run_eval(cfg, model, ds)
        summary = pl.run_analyze(cfg, model, ds).report
        for key in ("acc_all", "acc_few", "nll", "ece"):
            assert getattr(summary, key) == getattr(report, key), key
        # and the calibration matters on this model
        assert pl.run_eval(cfg, replace(model, metadata=None), ds).nll != report.nll

    def test_zero_spread_posterior_flags_undefined_pcc(self):
        cfg = tiny_config()
        ds = pl.build_datasets(cfg)
        pre, _ = pl.run_pretrain(cfg, ds)
        pre.posterior.sigma[:] = 0.0
        result = pl.run_analyze(cfg, pre, ds)
        assert np.allclose(result.dispersion_prob, 0.0)
        assert result.quartiles_prob.pcc is None
        assert result.report.pcc_prob is None
        assert "pcc_prob" not in result.report.to_json_dict()


class TestMemberMemory:
    """eval's ensemble and analyze reduce each posterior member as it
    arrives, so neither holds the (M, N, L) float64 stack of all members.
    tracemalloc sees numpy's buffers, which makes the peak deterministic,
    unlike a process's resident size."""

    M = 10

    @pytest.fixture(scope="class")
    def wide_model(self):
        cfg = tiny_config()
        cfg = replace(
            cfg,
            dataset=replace(cfg.dataset, num_classes=4, test_per_class=500),
            model=replace(cfg.model, hidden_sizes=(16,), repr_dim=64),
            swa=replace(cfg.swa, swag_samples=self.M),
            eval=replace(cfg.eval, ensemble_m=self.M),
        )
        ds = pl.build_datasets(cfg)
        return cfg, pl.run_pretrain(cfg, ds)[0], ds

    @staticmethod
    def traced_peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("stage", ["run_eval", "run_analyze"])
    def test_peak_below_member_stack(self, wide_model, stage):
        cfg, model, ds = wide_model
        stack = self.M * ds[1].num_examples * cfg.model.repr_dim * 8
        assert stack > 10_000_000  # 10 MB: several times eval's per-member buffers
        assert self.traced_peak(getattr(pl, stage), cfg, model, ds) < stack


class TestSweep:
    def test_single_seed_zero_std(self):
        cfg = replace(tiny_config(epochs=6), run=replace(tiny_config().run, seeds=(0,)))
        result = pl.run_sweep(cfg)
        assert not result.failures
        for row in result.aggregate():
            report = result.per_seed[0]["rows"][row["method"]]
            defined = [k for k in metrics_mod.REPORT_SCALARS if getattr(report, k) is not None]
            # the tiny config has no "many" class: that split is left out, not nan
            assert defined == ["acc_all", "acc_medium", "acc_few", "nll", "ece"]
            assert list(row) == ["method", *(f"{k}_{s}" for k in defined for s in ("mean", "std"))]
            for key in defined:
                assert row[f"{key}_mean"] == getattr(report, key)
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
            assert rows[0][method].to_json_dict() == rows[1][method].to_json_dict()
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

    @staticmethod
    def reports(result):
        return [(e["seed"], {m: r.to_json_dict() for m, r in e["rows"].items()})
                for e in result.per_seed]

    def test_groups_give_every_seed_its_report_in_seed_order(self, monkeypatch):
        # 5 seeds: one group, then groups of 3 and 2, then 2, 2 and 1
        cfg = replace(tiny_config(epochs=6), run=replace(tiny_config().run, seeds=(4, 0, 3, 1, 2)))
        monkeypatch.delenv("LTSREPR_THREADS", raising=False)
        serial = pl.run_sweep(cfg)
        assert [seed for seed, _ in self.reports(serial)] == [4, 0, 3, 1, 2]
        assert not serial.failures
        for threads in ("2", "3"):
            monkeypatch.setenv("LTSREPR_THREADS", threads)
            result = pl.run_sweep(cfg)
            assert not result.failures and self.reports(result) == self.reports(serial)

    def test_failed_seed_reported_in_its_place(self, monkeypatch):
        cfg = replace(tiny_config(epochs=6), run=replace(tiny_config().run, seeds=(0, 1, 2)))
        clean = self.reports(pl.run_sweep(cfg))
        build = pl.build_datasets

        def nan_for_seed_1(scfg, cache_path=None):
            datasets = build(scfg, cache_path)
            return with_nan(datasets) if scfg.run.seed == 1 else datasets

        monkeypatch.setattr(pl, "build_datasets", nan_for_seed_1)
        for threads in ("1", "2"):  # groups (0, 1, 2), then (0, 1) and (2,)
            monkeypatch.setenv("LTSREPR_THREADS", threads)
            result = pl.run_sweep(cfg)
            assert result.failures == [(1, "non-finite pre-activation in extractor layer 0")]
            assert self.reports(result) == [clean[0], clean[2]]

    def test_srepr_leaves_no_thread_before_the_pool_forks(self, monkeypatch):
        cfg = replace(tiny_config(epochs=6, method="srepr"),
                      run=replace(tiny_config().run, seeds=(0, 1)))
        before = threading.active_count()
        ds = pl.build_datasets(cfg)
        pl.run_retrain(cfg, pl.run_pretrain(cfg, ds)[0], ds)
        assert threading.active_count() == before
        monkeypatch.setenv("LTSREPR_THREADS", "2")
        result = pl.run_sweep(cfg)
        assert not result.failures and len(result.per_seed) == 2


class TestDatasetCache:
    def test_cache_roundtrip_consistent(self, tmp_path):
        # one dataset per (config, seed): no cache, writing the cache and
        # reading it give the same bits
        cfg = tiny_config()
        cache = tmp_path / "data.bin"
        fresh = pl.build_datasets(cfg)
        first = pl.build_datasets(cfg, cache_path=str(cache))
        assert cache.exists()
        second = pl.build_datasets(cfg, cache_path=str(cache))
        for cached in (first, second):
            for a, b in zip(fresh, cached):
                assert a.features.tobytes() == b.features.tobytes()
                assert a.labels.tobytes() == b.labels.tobytes()
                assert a.splits == b.splits
