"""End-to-end tests for the command-line driver."""

import csv
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

import ltsrepr.pipeline as pl
from ltsrepr.checkpoint import load_checkpoint, save_checkpoint
from ltsrepr.cli import FLAGS, _write_json, build_parser, load_config, main

TINY_CONFIG = """\
[dataset]
num_classes = 3
input_dim = 6
max_count = 40
test_per_class = 10

[model]
hidden_sizes = 8
repr_dim = 4

[optim]
epochs = 8
batch_size = 16

[swa]
swag_samples = 4

[retrain]
srepr_m = 3

[run]
seed = 0
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.ini").write_text(TINY_CONFIG)
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


def pretrain(workdir, out="run", swa="on", extra=()):
    code = run_cli(
        "pretrain", "--config", "tiny.ini", "--output-dir", out, "--swa", swa, *extra
    )
    assert code == 0
    return workdir / out / "pretrain.ckpt"


def flag_value(flag):
    """A command-line value for ``flag`` and the config value it must set,
    which differs from the default."""
    key, value, _, _ = FLAGS[flag]
    section, name = key.split(".")
    old = getattr(getattr(pl.ExperimentConfig(), section), name)
    if isinstance(value, dict):
        return next((text, v) for text, v in value.items() if v != old)
    if isinstance(value, tuple):
        text = next(v for v in value if v != old)
        return text, text
    if value is pl.parse_ints:
        return "3,4", (3, 4)
    if value is str:
        return "elsewhere", "elsewhere"
    new = old + 1 if value is int else (old / 2 if old else 0.5)
    return str(new), new


class TestFlagTable:
    @pytest.mark.parametrize("flag, command", [
        (flag, command) for flag, (_, _, _, commands) in FLAGS.items() for command in commands
    ])
    def test_flag_sets_only_its_field(self, flag, command):
        key, *_ = FLAGS[flag]
        section, name = key.split(".")
        text, want = flag_value(flag)
        argv = [command, flag, text]
        if command in ("retrain", "eval", "analyze"):
            argv += ["--checkpoint", "unused.ckpt"]
        default = pl.ExperimentConfig()
        cfg = load_config(build_parser().parse_args(argv))
        assert getattr(getattr(cfg, section), name) == want
        assert cfg == replace(default, **{section: replace(getattr(default, section), **{name: want})})

    @pytest.mark.parametrize("flag, text, section, name, want", [
        ("--stochastic-source", "jitter", "retrain", "stochastic_source", "input_jitter"),
        ("--stochastic-source", "posterior", "retrain", "stochastic_source", "posterior"),
        ("--swa", "on", "swa", "enabled", True),
        ("--swa", "off", "swa", "enabled", False),
    ])
    def test_mapped_choices(self, flag, text, section, name, want):
        cfg = load_config(build_parser().parse_args(["sweep", flag, text]))
        assert getattr(getattr(cfg, section), name) == want


class TestPretrainCommand:
    def test_swa_off_has_no_posterior_section(self, workdir):
        ckpt = pretrain(workdir, out="sgd", swa="off")
        assert b"SWAGDIAG" not in ckpt.read_bytes()
        assert load_checkpoint(ckpt).posterior is None

    def test_swa_on_records_captures(self, workdir):
        ckpt = pretrain(workdir, out="swa", swa="on")
        loaded = load_checkpoint(ckpt)
        assert loaded.posterior is not None
        assert loaded.posterior.count >= 1

    def test_cache_may_sit_in_the_output_dir(self, workdir):
        pretrain(workdir, out="run", extra=("--dataset-cache", "run/cache.bin"))
        assert (workdir / "run" / "cache.bin").is_file()

    def test_metrics_json_written(self, workdir):
        pretrain(workdir, out="run")
        payload = json.loads((workdir / "run" / "pretrain_metrics.json").read_text())
        assert "acc_all" in payload and "epoch_losses" in payload

    def test_bitwise_reproducible(self, workdir):
        a = pretrain(workdir, out="a")
        b = pretrain(workdir, out="b")
        assert a.read_bytes() == b.read_bytes()

    def test_flags_override_config(self, workdir):
        ckpt = pretrain(workdir, out="big", extra=("--repr-dim", "5"))
        assert load_checkpoint(ckpt).params.w.shape[0] == 5

    def test_checkpoint_metadata_self_describing(self, workdir):
        ckpt = pretrain(workdir, out="run")
        meta = load_checkpoint(ckpt).metadata
        assert meta["stage"] == "pretrain"
        assert meta["config"]["dataset"]["num_classes"] == 3
        assert len(meta["config_hash"]) == 64

    def test_diverging_pretrain_is_one_error_line(self, workdir, capsys):
        # the logits overflow; no numpy warning may precede the error line
        code = run_cli("pretrain", "--config", "tiny.ini", "--lr", "1e6", "--output-dir", "div")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite ")
        assert not (workdir / "div").exists()


    def test_mixup_with_batch_size_one_is_rejected_before_any_work(self, workdir, capsys):
        # mixup pairs a batch's examples, so the config is rejected before
        # the datasets are built or the cache and output directory made
        code = run_cli("pretrain", "--config", "tiny.ini", "--batch-size", "1",
                       "--mixup-alpha", "0.2", "--dataset-cache", "c/ds.bin",
                       "--output-dir", "mix")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: optim.mixup_alpha > 0 needs optim.batch_size >= 2 "
                       "(mixup pairs a batch's examples)"]
        assert not (workdir / "mix").exists() and not (workdir / "c").exists()

class TestLibraryMatchesCli:
    def test_same_models_and_reports(self, workdir):
        # the stage drivers hand on what a checkpoint stores, so the library
        # chain and the CLI chain (which reloads every checkpoint) agree
        cfg = pl.ExperimentConfig.from_text(TINY_CONFIG)
        datasets = pl.build_datasets(cfg)
        pre, _ = pl.run_pretrain(cfg, datasets)
        pretrain(workdir, out="run")
        save_checkpoint(workdir / "lib.ckpt", pre)
        assert (workdir / "lib.ckpt").read_bytes() == (workdir / "run" / "pretrain.ckpt").read_bytes()
        # a dataset cache, written on the first run and read on the second,
        # trains the same model
        for out in ("cached", "cached_again"):
            ckpt = pretrain(workdir, out=out, extra=("--dataset-cache", "cache.bin"))
            assert ckpt.read_bytes() == (workdir / "lib.ckpt").read_bytes()
        assert run_cli("eval", "--checkpoint", "run/pretrain.ckpt", "--output-dir", "pre") == 0
        metrics = json.loads((workdir / "run" / "pretrain_metrics.json").read_text())
        del metrics["epoch_losses"]
        assert metrics == json.loads((workdir / "pre" / "eval_report.json").read_text())
        for method in ("crt", "lws", "disalign", "srepr"):
            mcfg = replace(cfg, retrain=replace(cfg.retrain, method=method))
            model = pl.run_retrain(mcfg, pre, datasets)
            assert run_cli("retrain", "--checkpoint", "run/pretrain.ckpt", "--retrain", method,
                           "--output-dir", method) == 0
            save_checkpoint(workdir / f"{method}.ckpt", model)
            assert ((workdir / f"{method}.ckpt").read_bytes()
                    == (workdir / method / "retrain.ckpt").read_bytes())
            assert run_cli("eval", "--checkpoint", f"{method}/retrain.ckpt", "--ensemble-m", "2",
                           "--output-dir", method) == 0
            ecfg = replace(mcfg, eval=replace(mcfg.eval, ensemble_m=2))
            report = json.loads(json.dumps(pl.run_eval(ecfg, model, datasets).to_json_dict()))
            assert report == json.loads((workdir / method / "eval_report.json").read_text())


class TestRetrainCommand:
    def test_crt_on_plain_checkpoint(self, workdir):
        ckpt = pretrain(workdir, out="sgd", swa="off")
        code = run_cli(
            "retrain", "--checkpoint", str(ckpt), "--output-dir", "ret", "--retrain", "crt"
        )
        assert code == 0
        loaded = load_checkpoint(workdir / "ret" / "retrain.ckpt")
        assert loaded.metadata["method"] == "crt"

    def test_srepr_needs_posterior(self, workdir, capsys):
        ckpt = pretrain(workdir, out="sgd", swa="off")
        code = run_cli(
            "retrain", "--checkpoint", str(ckpt), "--output-dir", "ret", "--retrain", "srepr"
        )
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "posterior required" in err

    def test_backbone_bytes_identical(self, workdir):
        ckpt = pretrain(workdir, out="swa", swa="on")
        assert run_cli(
            "retrain", "--checkpoint", str(ckpt), "--output-dir", "ret", "--retrain", "srepr"
        ) == 0
        before = load_checkpoint(ckpt).params
        after = load_checkpoint(workdir / "ret" / "retrain.ckpt").params
        for (w0, b0), (w1, b1) in zip(before.layers, after.layers):
            np.testing.assert_array_equal(w0, w1)
            np.testing.assert_array_equal(b0, b1)

    def test_input_checkpoint_not_mutated(self, workdir):
        ckpt = pretrain(workdir, out="swa")
        raw = ckpt.read_bytes()
        run_cli("retrain", "--checkpoint", str(ckpt), "--output-dir", "ret")
        assert ckpt.read_bytes() == raw

    def test_lws_and_disalign_record_metadata(self, workdir):
        ckpt = pretrain(workdir, out="swa")
        assert run_cli(
            "retrain", "--checkpoint", str(ckpt), "--output-dir", "lws", "--retrain", "lws"
        ) == 0
        meta = load_checkpoint(workdir / "lws" / "retrain.ckpt").metadata
        assert "lws_tau" in meta
        assert run_cli(
            "retrain", "--checkpoint", str(ckpt), "--output-dir", "da", "--retrain", "disalign"
        ) == 0
        meta = load_checkpoint(workdir / "da" / "retrain.ckpt").metadata
        assert set(meta["disalign"]) == {"scale", "shift", "gate_w", "gate_b"}

    def test_divergent_retrain_fails_without_checkpoint(self, workdir, capsys):
        ckpt = pretrain(workdir, out="swa")
        code = run_cli(
            "retrain", "--checkpoint", str(ckpt), "--output-dir", "div", "--retrain", "crt",
            "--retrain-lr", "1e6", "--retrain-epochs-frac", "40",
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: crt diverged")
        assert not (workdir / "div" / "retrain.ckpt").exists()

    def test_saturated_disalign_fails_without_checkpoint(self, workdir, capsys):
        # the loss stays finite here; the gate saturates instead
        ckpt = pretrain(workdir, out="swa")
        code = run_cli(
            "retrain", "--checkpoint", str(ckpt), "--output-dir", "div", "--retrain", "disalign",
            "--retrain-lr", "1e6",
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: disalign diverged: gate saturated")
        assert not (workdir / "div").exists()


    def test_diverged_lws_fails_without_checkpoint(self, workdir, capsys):
        # tau runs to ~-258 with a finite loss; the scaled weights would be ~1e-128
        ckpt = pretrain(workdir, out="swa")
        code = run_cli(
            "retrain", "--checkpoint", str(ckpt), "--output-dir", "div", "--retrain", "lws",
            "--retrain-lr", "1e3",
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: lws diverged: norm^-tau leaves float32")
        assert not (workdir / "div").exists()

class TestEvalCommand:
    def test_report_files_and_determinism(self, workdir):
        ckpt = pretrain(workdir, out="run")
        assert run_cli("eval", "--checkpoint", str(ckpt), "--output-dir", "e1") == 0
        assert run_cli("eval", "--checkpoint", str(ckpt), "--output-dir", "e2") == 0
        r1 = (workdir / "e1" / "eval_report.json").read_bytes()
        r2 = (workdir / "e2" / "eval_report.json").read_bytes()
        assert r1 == r2
        payload = json.loads(r1)
        assert {"acc_all", "nll", "ece", "bins"} <= set(payload)
        with open(workdir / "e1" / "eval_report.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["metric", "value"]

    def test_eval_uses_checkpoint_config(self, workdir):
        # no --config passed: dataset shape comes from the embedded metadata
        ckpt = pretrain(workdir, out="run")
        assert run_cli("eval", "--checkpoint", str(ckpt), "--output-dir", "e3") == 0

    def test_ensemble_eval(self, workdir):
        ckpt = pretrain(workdir, out="run")
        assert run_cli(
            "eval", "--checkpoint", str(ckpt), "--output-dir", "e4", "--ensemble-m", "2"
        ) == 0

    def test_missing_checkpoint_errors(self, workdir, capsys):
        code = run_cli("eval", "--checkpoint", "nope.ckpt", "--output-dir", "e5")
        assert code != 0
        assert capsys.readouterr().err.startswith("error:")


class TestAnalyzeCommand:
    def test_outputs_and_row_count(self, workdir):
        ckpt = pretrain(workdir, out="run")
        assert run_cli("analyze", "--checkpoint", str(ckpt), "--output-dir", "an") == 0
        with open(workdir / "an" / "instance_metrics.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == 30  # 3 classes x 10 test examples
        summary = json.loads((workdir / "an" / "analysis_summary.json").read_text())
        assert "pcc_prob" in summary and "acc_all" in summary
        assert abs(sum(summary["per_class_marginal"]) - 1.0) < 1e-9
        assert len(summary["per_class_weight_norm"]) == 3
        for name in ("quartiles_repr.csv", "quartiles_prob.csv", "per_class.csv",
                     "reliability_bins.csv"):
            assert (workdir / "an" / name).exists()

    def test_rerun_deterministic(self, workdir):
        ckpt = pretrain(workdir, out="run")
        run_cli("analyze", "--checkpoint", str(ckpt), "--output-dir", "a1",
                "--analysis-seed", "5")
        run_cli("analyze", "--checkpoint", str(ckpt), "--output-dir", "a2",
                "--analysis-seed", "5")
        a = (workdir / "a1" / "instance_metrics.csv").read_bytes()
        b = (workdir / "a2" / "instance_metrics.csv").read_bytes()
        assert a == b

    def test_disalign_calibration_matches_eval(self, workdir):
        # analyze's point predictions are eval's: both apply the checkpoint's calibration
        ckpt = pretrain(workdir, out="swa")
        assert run_cli(
            "retrain", "--checkpoint", str(ckpt), "--output-dir", "da", "--retrain", "disalign"
        ) == 0
        da = str(workdir / "da" / "retrain.ckpt")
        assert run_cli("eval", "--checkpoint", da, "--output-dir", "ev", "--ensemble-m", "0") == 0
        assert run_cli("analyze", "--checkpoint", da, "--output-dir", "an") == 0
        report = json.loads((workdir / "ev" / "eval_report.json").read_text())
        summary = json.loads((workdir / "an" / "analysis_summary.json").read_text())
        for key in ("acc_all", "acc_few", "nll", "ece"):
            assert summary[key] == report[key], key

    def test_defined_keys_match_the_pccs_present(self, workdir):
        # with a zero covariance every member predicts alike, so the
        # prediction dispersion is constant and its PCC undefined
        ckpt = pretrain(workdir, out="run")
        model = load_checkpoint(ckpt)
        model.posterior.sigma[:] = 0.0
        save_checkpoint(workdir / "flat.ckpt", model)
        for path, out, defined in ((ckpt, "an", True), (workdir / "flat.ckpt", "flat", False)):
            assert run_cli("analyze", "--checkpoint", str(path), "--output-dir", out) == 0
            summary = json.loads((workdir / out / "analysis_summary.json").read_text())
            for key in ("pcc_repr", "pcc_prob"):
                assert summary[f"{key}_defined"] is (key in summary), key
            assert summary["pcc_prob_defined"] is defined

    def test_plain_checkpoint_rejected(self, workdir, capsys):
        ckpt = pretrain(workdir, out="sgd", swa="off")
        code = run_cli("analyze", "--checkpoint", str(ckpt), "--output-dir", "an2")
        assert code != 0
        assert "posterior" in capsys.readouterr().err


class TestSweepCommand:
    def test_single_seed_table(self, workdir):
        assert run_cli(
            "sweep", "--config", "tiny.ini", "--output-dir", "sw", "--seeds", "0",
            "--epochs", "6",
        ) == 0
        with open(workdir / "sw" / "sweep_table.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "method"
        methods = [r[0] for r in rows[1:]]
        assert methods == ["swa", "swa+crt"]
        # single seed: every std is zero, and the split the tiny config
        # lacks ("many") is an empty cell, not nan
        header = rows[0]
        assert header[1:3] == ["acc_all_mean", "acc_all_std"]
        for row in rows[1:]:
            for name, value in zip(header[1:], row[1:]):
                if name.startswith("acc_many_"):
                    assert value == ""
                elif name.endswith("_std"):
                    assert float(value) == 0.0
                else:
                    assert np.isfinite(float(value))

    def test_undefined_split_is_an_empty_cell(self, workdir):
        # with no imbalance every class is "medium", so acc_many and acc_few
        # are undefined: both tables leave their cells empty, never nan or None
        (workdir / "flat.ini").write_text(
            TINY_CONFIG.replace("test_per_class = 10", "test_per_class = 10\nimbalance_factor = 1.0")
        )
        assert run_cli("sweep", "--config", "flat.ini", "--output-dir", "sw", "--seeds", "0,1",
                       "--epochs", "6") == 0
        for name, count in (("sweep_table.csv", 2), ("sweep_runs.csv", 4)):
            with open(workdir / "sw" / name) as f:
                rows = list(csv.DictReader(f))
            assert len(rows) == count
            for row in rows:
                for column, value in row.items():
                    if column.startswith(("acc_many", "acc_few")):
                        assert value == "", (name, column)
                    elif column != "method":
                        assert np.isfinite(float(value)), (name, column)

    @pytest.mark.parametrize("flag, value", [("--dataset-cache", "x"), ("--swag-samples", "4")])
    def test_options_a_sweep_cannot_use_rejected(self, workdir, capsys, flag, value):
        # a cache holds one seed's dataset, and a sweep never analyzes
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--config", "tiny.ini", "--output-dir", "sw", flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (workdir / "x").exists() and not (workdir / "sw").exists()

    def test_bad_thread_count_rejected_before_any_seed(self, workdir, capsys, monkeypatch):
        def no_seed(*_):
            raise AssertionError("a seed ran")

        monkeypatch.setenv("LTSREPR_THREADS", "two")
        monkeypatch.setattr(pl, "run_single_seed", no_seed)
        assert run_cli("sweep", "--config", "tiny.ini", "--output-dir", "sw") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: LTSREPR_THREADS: invalid literal for int() with base 10: 'two'"]
        assert not (workdir / "sw").exists()

    def test_runs_csv_lists_seeds(self, workdir):
        assert run_cli(
            "sweep", "--config", "tiny.ini", "--output-dir", "sw2", "--seeds", "0,1",
            "--epochs", "6",
        ) == 0
        with open(workdir / "sw2" / "sweep_runs.csv") as f:
            rows = list(csv.reader(f))
        seeds = sorted({r[0] for r in rows[1:]})
        assert seeds == ["0", "1"]

    def test_mean_matches_per_seed_rows(self, workdir):
        run_cli("sweep", "--config", "tiny.ini", "--output-dir", "sw3", "--seeds", "0,1",
                "--epochs", "6")
        with open(workdir / "sw3" / "sweep_runs.csv") as f:
            runs = list(csv.DictReader(f))
        with open(workdir / "sw3" / "sweep_table.csv") as f:
            table = {r["method"]: r for r in csv.DictReader(f)}
        for method in ("swa", "swa+crt"):
            accs = [float(r["acc_all"]) for r in runs if r["method"] == method]
            assert float(table[method]["acc_all_mean"]) == pytest.approx(
                np.mean(accs), abs=1e-12
            )


class TestErrorPaths:
    def test_json_writer_rejects_nan(self, workdir):
        with pytest.raises(ValueError):
            _write_json(str(workdir / "bad.json"), {"nll": float("nan")})
        assert not (workdir / "bad.json").exists()

    def test_bad_config_key(self, workdir, capsys):
        (workdir / "bad.ini").write_text("[optim]\nunknown_key = 1\n")
        code = run_cli("pretrain", "--config", "bad.ini", "--output-dir", "x")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown" in err

    def test_config_value_error_names_the_key(self, workdir, capsys):
        (workdir / "bad.ini").write_text("[optim]\nepochs = 8.5\n")
        assert run_cli("pretrain", "--config", "bad.ini", "--output-dir", "x") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: [optim] epochs: invalid literal for int() with base 10: '8.5'"]
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("text, message", [
        ("epochs = 3\n", "bad.ini, line 1: 'epochs = 3' comes before any [section] header"),
        ("[optim]\nepochs = 3\nepochs = 4\n", "bad.ini, line 3: [optim] epochs is set twice"),
    ])
    def test_malformed_config_file_is_one_line_naming_file_and_line(self, workdir, capsys, text,
                                                                    message):
        (workdir / "bad.ini").write_text(text)
        assert run_cli("pretrain", "--config", "bad.ini", "--output-dir", "x") == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("section, entries, message", [
        ("dataset", {"foo": 1}, "unknown keys in [dataset]: ['foo']"),
        ("foo", {}, "unknown config sections: ['foo']"),
        ("optim", {"epochs": 8.5}, "[optim] epochs: invalid literal for int() with base 10: '8.5'"),
        ("run", {"output_dir": "a\nb"},
         "[run] output_dir: 'a\\nb' would not read back from a config file"),
    ])
    def test_bad_metadata_config_rejected(self, workdir, capsys, section, entries, message):
        # the checkpoint's config is read as a config file is
        model = load_checkpoint(pretrain(workdir, out="run"))
        model.metadata["config"].setdefault(section, {}).update(entries)
        save_checkpoint(workdir / "bad.ckpt", model)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", "bad.ckpt", "--output-dir", "out") == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (workdir / "out").exists()

    def test_metadata_config_values_read_as_in_a_config_file(self, workdir):
        model = load_checkpoint(pretrain(workdir, out="run"))
        config = model.metadata["config"]
        config["eval"]["ece_bins"] = "4"
        config["model"]["hidden_sizes"] = 8
        config["swa"]["enabled"] = "no"
        save_checkpoint(workdir / "edited.ckpt", model)
        assert run_cli("retrain", "--checkpoint", "edited.ckpt", "--output-dir", "re") == 0
        made = load_checkpoint(workdir / "re" / "retrain.ckpt").metadata["config"]
        assert made["eval"]["ece_bins"] == 4
        assert made["model"]["hidden_sizes"] == [8]
        assert made["swa"]["enabled"] is False

    @pytest.mark.parametrize("argv, message", [
        (("pretrain", "--epochs", "4"), "capture 1 snapshot"),
        (("eval", "--ensemble-m", "-3"), "ensemble_m must be >= 0"),
        (("retrain", "--retrain-epochs-frac", "-1"), "epochs_frac must be positive"),
        (("analyze", "--analysis-seed", "-1"), "eval.analysis_seed must be >= 0"),
    ])
    def test_bad_config_rejected_before_any_work(self, workdir, capsys, argv, message):
        ckpt = pretrain(workdir, out="run")
        capsys.readouterr()
        command, *flags = argv
        extra = () if command == "pretrain" else ("--checkpoint", str(ckpt))
        code = run_cli(command, "--config", "tiny.ini", "--output-dir", "out",
                       "--dataset-cache", "cache.bin", *extra, *flags)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert not (workdir / "out").exists()
        assert not (workdir / "cache.bin").exists()

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    @pytest.mark.parametrize("field, value, message", [
        ("scale", lambda v: v[:-1], "disalign.scale has 2 entries, model has 3 classes"),
        ("gate_b", lambda v: "x", "disalign.gate_b is not numeric: 'x'"),
    ])
    def test_malformed_disalign_metadata_rejected(self, workdir, capsys, command, field, value,
                                                  message):
        ckpt = pretrain(workdir, out="swa")
        assert run_cli(
            "retrain", "--checkpoint", str(ckpt), "--output-dir", "da", "--retrain", "disalign"
        ) == 0
        model = load_checkpoint(workdir / "da" / "retrain.ckpt")
        model.metadata["disalign"][field] = value(model.metadata["disalign"][field])
        save_checkpoint(workdir / "bad.ckpt", model)
        capsys.readouterr()
        code = run_cli(command, "--checkpoint", "bad.ckpt", "--output-dir", "out",
                       "--dataset-cache", "cache.bin")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: checkpoint metadata {message}"]
        assert not (workdir / "out").exists()
        assert not (workdir / "cache.bin").exists()

    @pytest.mark.parametrize("command", ["pretrain", "retrain", "eval", "analyze"])
    def test_truncated_cache_leaves_no_output_dir(self, workdir, capsys, command):
        ckpt = pretrain(workdir, out="run", extra=("--dataset-cache", "cache.bin"))
        (workdir / "short.bin").write_bytes((workdir / "cache.bin").read_bytes()[:200])
        capsys.readouterr()
        extra = (("--config", "tiny.ini") if command == "pretrain"
                 else ("--checkpoint", str(ckpt)))
        code = run_cli(command, *extra, "--output-dir", "out", "--dataset-cache", "short.bin")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: truncated dataset cache")
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("config, seed", [("tiny.ini", "1"), ("four.ini", "0")])
    def test_cache_made_for_another_dataset_rejected(self, workdir, capsys, config, seed):
        # a cache made for seed 0 and 3 classes, read by another seed or a
        # 4-class config, fails before any training and writes nothing
        (workdir / "four.ini").write_text(TINY_CONFIG.replace("num_classes = 3", "num_classes = 4"))
        pretrain(workdir, out="run", extra=("--seed", "0", "--dataset-cache", "c.bin"))
        cache = (workdir / "c.bin").read_bytes()
        capsys.readouterr()
        code = run_cli("pretrain", "--config", config, "--seed", seed, "--output-dir", "out",
                       "--dataset-cache", "c.bin")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: dataset cache c.bin was made for ")
        assert not (workdir / "out").exists()
        assert (workdir / "c.bin").read_bytes() == cache
        # the run it was made for still reads it
        pretrain(workdir, out="again", extra=("--seed", "0", "--dataset-cache", "c.bin"))

    @pytest.mark.parametrize("command", ["retrain", "eval", "analyze"])
    @pytest.mark.parametrize("flags", [("--seed", "5"), ("--config", "wide.ini")])
    def test_dataset_other_than_the_checkpoints_rejected(self, workdir, capsys, command, flags):
        # the checkpoint was made on seed 0's tiny dataset; another seed or
        # [dataset] section fails before any dataset is built or written
        (workdir / "wide.ini").write_text(TINY_CONFIG.replace("max_count = 40", "max_count = 50"))
        ckpt = pretrain(workdir, out="run")
        capsys.readouterr()
        code = run_cli(command, "--checkpoint", str(ckpt), *flags, "--output-dir", "out",
                       "--dataset-cache", "c.bin")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: checkpoint {ckpt} was made on the dataset ")
        assert not (workdir / "out").exists()
        assert not (workdir / "c.bin").exists()
        # the same dataset, named explicitly, still runs
        for same in (("--seed", "0"), ("--config", "tiny.ini")):
            assert run_cli(command, "--checkpoint", str(ckpt), *same, "--output-dir", "ok") == 0

    @pytest.mark.parametrize("cache", [(), ("--dataset-cache", "c.bin")])
    def test_dataset_beyond_float32_rejected(self, workdir, capsys, cache):
        # with or without a cache: one outcome, before any cache is written
        (workdir / "huge.ini").write_text(
            TINY_CONFIG.replace("test_per_class = 10", "test_per_class = 10\nclass_separation = 1e39")
        )
        code = run_cli("pretrain", "--config", "huge.ini", "--output-dir", "out", *cache)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: train features are non-finite or beyond float32 range"]
        assert not (workdir / "out").exists()
        assert not (workdir / "c.bin").exists()

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_non_finite_checkpoint_rejected(self, workdir, capsys, command):
        blob = bytearray(pretrain(workdir, out="run").read_bytes())
        blob[24:28] = np.float32(np.nan).tobytes()  # the first value of base array 0
        (workdir / "nan.ckpt").write_bytes(bytes(blob))
        capsys.readouterr()
        assert run_cli(command, "--checkpoint", "nan.ckpt", "--output-dir", "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: base array 0 values are non-finite or beyond float32 range"]
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_negative_covariance_checkpoint_rejected(self, workdir, capsys, command):
        blob = bytearray(pretrain(workdir, out="run").read_bytes())
        # the first covariance value of base array 0: past the base section
        # (492 bytes), the posterior magic and count, two 476-byte moment
        # groups and array 0's header
        assert struct.unpack_from("<f", blob, 1464)[0] >= 0.0
        struct.pack_into("<f", blob, 1464, -1.0)
        (workdir / "neg.ckpt").write_bytes(bytes(blob))
        capsys.readouterr()
        assert run_cli(command, "--checkpoint", "neg.ckpt", "--output-dir", "out",
                       *(["--ensemble-m", "4"] if command == "eval" else [])) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: posterior covariance array 0 values are negative"]
        assert not (workdir / "out").exists()

    def test_parser_built_once_parses_each_call_afresh(self):
        assert build_parser() is build_parser()
        first = build_parser().parse_args(["pretrain", "--lr", "0.5", "--seed", "3"])
        second = build_parser().parse_args(["eval", "--checkpoint", "m.ckpt"])
        third = build_parser().parse_args(["pretrain", "--config", "tiny.ini"])
        assert (first.command, first.lr, first.seed, first.config) == ("pretrain", 0.5, 3, None)
        assert (second.command, second.checkpoint, second.seed) == ("eval", "m.ckpt", None)
        assert not hasattr(second, "lr")
        assert (third.lr, third.seed, third.config) == (None, None, "tiny.ini")

    def test_bad_flag_exits_2_and_no_flag_carries_over(self, workdir, capsys):
        seeded = pretrain(workdir, out="a", extra=("--seed", "1"))
        with pytest.raises(SystemExit) as exc:
            run_cli("pretrain", "--no-such-flag", "1")
        assert exc.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err
        plain = pretrain(workdir, out="b")  # tiny.ini's seed
        seeds = [load_checkpoint(path).metadata["config"]["run"]["seed"] for path in (seeded, plain)]
        assert seeds == [1, 0]

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("--help")
        out = capsys.readouterr().out
        for cmd in ("pretrain", "retrain", "eval", "analyze", "sweep"):
            assert cmd in out
