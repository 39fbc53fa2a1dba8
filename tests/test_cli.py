"""End-to-end tests for the command-line driver."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import ltsrepr.pipeline as pl
from ltsrepr.checkpoint import load_checkpoint
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
        # single seed: every populated std column is zero
        header = rows[0]
        for row in rows[1:]:
            for name, value in zip(header[1:], row[1:]):
                if name.endswith("_std") and value != "nan":
                    assert float(value) == 0.0

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

    @pytest.mark.parametrize("argv, message", [
        (("pretrain", "--epochs", "4"), "capture 1 snapshot"),
        (("eval", "--ensemble-m", "-3"), "ensemble_m must be >= 0"),
        (("retrain", "--retrain-epochs-frac", "-1"), "epochs_frac must be positive"),
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

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("--help")
        out = capsys.readouterr().out
        for cmd in ("pretrain", "retrain", "eval", "analyze", "sweep"):
            assert cmd in out
