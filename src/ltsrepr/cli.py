"""Command-line experiment driver.

Subcommands: pretrain, retrain, eval, analyze, sweep. Every command reads an
optional config file, applies flag overrides (flags win), writes its
artifacts under the output directory, and exits 0 only if everything
requested was written. Errors print a single machine-parsable
``error: <message>`` line on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import checkpoint as ckpt_io
from . import pipeline as pl
from .balancing import KINDS
from .retrain import RETRAIN_METHODS

_ALL = ("pretrain", "retrain", "eval", "analyze", "sweep")
_STAGE1 = ("pretrain", "sweep")
_STAGE2 = ("retrain", "sweep")
_EVAL = ("eval", "analyze")

# Every flag that sets a config key: flag -> (section.key, value, help, commands).
# The value is a type for argparse, or the accepted choices: a tuple of
# values, or a {choice: value} map.
FLAGS = {
    "--output-dir": ("run.output_dir", str, "directory for artifacts", _ALL),
    "--seed": ("run.seed", int, "run seed (dataset + training streams)", _ALL),
    "--hidden-sizes": ("model.hidden_sizes", pl.parse_ints, "comma-separated hidden layer widths",
                       _STAGE1),
    "--repr-dim": ("model.repr_dim", int, "representation dimension", _STAGE1),
    "--lr": ("optim.lr", float, "stage-1 base learning rate", _STAGE1),
    "--momentum": ("optim.momentum", float, None, _STAGE1),
    "--weight-decay": ("optim.weight_decay", float, None, _STAGE1),
    "--epochs": ("optim.epochs", int, "stage-1 epochs", _STAGE1),
    "--batch-size": ("optim.batch_size", int, None, _STAGE1),
    "--mixup-alpha": ("optim.mixup_alpha", float, "stage-1 mixup (0 disables)", _STAGE1),
    "--swa": ("swa.enabled", {"on": True, "off": False}, "enable weight averaging", _STAGE1),
    "--swa-start-frac": ("swa.start_frac", float, None, _STAGE1),
    "--swa-lr": ("swa.swa_lr", float, None, _STAGE1),
    "--swag-samples": ("swa.swag_samples", int, "posterior draws for analysis/ensembling",
                       ("pretrain", "analyze", "sweep")),
    "--retrain": ("retrain.method", RETRAIN_METHODS, "stage-2 method", _STAGE2),
    "--balance": ("retrain.balance", KINDS, None, _STAGE2),
    "--balance-rho": ("retrain.balance_rho", float, None, _STAGE2),
    "--retrain-epochs-frac": ("retrain.epochs_frac", float, None, _STAGE2),
    "--retrain-lr": ("retrain.lr", float, None, _STAGE2),
    "--srepr-m": ("retrain.srepr_m", int, None, _STAGE2),
    "--kd-temp": ("retrain.kd_temp", float, None, _STAGE2),
    "--beta-floor": ("retrain.beta_floor", float, None, _STAGE2),
    "--stochastic-source": ("retrain.stochastic_source",
                            {"posterior": "posterior", "jitter": "input_jitter"}, None, _STAGE2),
    "--jitter-std": ("retrain.jitter_std", float, None, _STAGE2),
    "--ece-bins": ("eval.ece_bins", int, None, _EVAL),
    "--ensemble-m": ("eval.ensemble_m", int, None, _EVAL),
    "--analysis-seed": ("eval.analysis_seed", int, None, _EVAL),
    "--seeds": ("run.seeds", pl.parse_ints, "comma-separated seed list", ("sweep",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltsrepr",
        description="Long-tailed classification experiments: decoupled training "
        "with weight averaging and stochastic-representation distillation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (
        ("pretrain", "stage-1 representation learning"),
        ("retrain", "stage-2 classifier re-training"),
        ("eval", "metrics report for a checkpoint"),
        ("analyze", "dispersion/quartile/diagnostic tables"),
        ("sweep", "full pipeline over a list of seeds"),
    ):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="INI config file; flags override its values")
        p.add_argument("--dataset-cache", help="binary dataset cache file (train+test records)")
        if command in ("retrain", "eval", "analyze"):
            p.add_argument("--checkpoint", required=True, help="checkpoint to start from")
        for flag, (_, value, help_text, commands) in FLAGS.items():
            if command not in commands:
                continue
            if isinstance(value, (tuple, dict)):
                p.add_argument(flag, choices=list(value), help=help_text)
            else:
                p.add_argument(flag, type=value, help=help_text)
    return parser


def load_config(args: argparse.Namespace, metadata: dict | None = None) -> pl.ExperimentConfig:
    """Defaults <- checkpoint metadata <- config file <- flags, validated
    before any command touches the output directory."""
    if getattr(args, "config", None):
        cfg = pl.ExperimentConfig.from_file(args.config)
    elif metadata and "config" in metadata:
        cfg = pl.ExperimentConfig.from_dict(metadata["config"])
    else:
        cfg = pl.ExperimentConfig()
    overrides = {}
    for flag, (key, value, _, _) in FLAGS.items():
        given = getattr(args, flag[2:].replace("-", "_"), None)
        overrides[key] = value[given] if isinstance(value, dict) and given is not None else given
    return pl.apply_overrides(cfg, overrides).validate()


def _outdir(cfg: pl.ExperimentConfig) -> str:
    """Create the output directory. Commands call this just before their
    first write, so one that fails earlier leaves no directory behind."""
    os.makedirs(cfg.run.output_dir, exist_ok=True)
    return cfg.run.output_dir


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def _write_report(outdir: str, stem: str, report) -> None:
    _write_json(os.path.join(outdir, f"{stem}.json"), report.to_json_dict())
    with open(os.path.join(outdir, f"{stem}.csv"), "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "value"])
        for name, value in report.csv_rows():
            writer.writerow([name, repr(value)])


def _write_bins(path: str, bins) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["bin", "lo", "hi", "count", "mean_confidence", "accuracy"])
        for i, b in enumerate(bins, start=1):
            writer.writerow([i, b.lo, b.hi, b.count, b.mean_confidence, b.accuracy])


def cmd_pretrain(args) -> int:
    cfg = load_config(args)
    result = pl.run_pretrain(cfg, cache_path=args.dataset_cache)
    outdir = _outdir(cfg)
    ckpt_path = os.path.join(outdir, "pretrain.ckpt")
    ckpt_io.save_checkpoint(
        ckpt_path, result.params, result.posterior, pl.pretrain_metadata(cfg)
    )
    report = pl.run_eval(
        cfg, result.params, result.posterior, datasets=(result.train, result.test)
    )
    payload = report.to_json_dict()
    payload["epoch_losses"] = result.epoch_losses
    _write_json(os.path.join(outdir, "pretrain_metrics.json"), payload)
    print(f"wrote {ckpt_path}")
    return 0


def cmd_retrain(args) -> int:
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    cfg = load_config(args, ckpt.metadata)
    datasets = pl.build_datasets(cfg, args.dataset_cache)
    result = pl.run_retrain(cfg, ckpt.params, ckpt.posterior, datasets=datasets)
    outdir = _outdir(cfg)
    out_path = os.path.join(outdir, "retrain.ckpt")
    ckpt_io.save_checkpoint(
        out_path, result.params, result.posterior, pl.retrain_metadata(cfg, result)
    )
    print(f"wrote {out_path}")
    return 0


def _disalign_from_metadata(metadata: dict | None):
    if metadata and "disalign" in metadata:
        from .retrain import DisAlignParams

        return DisAlignParams.from_dict(metadata["disalign"])
    return None


def cmd_eval(args) -> int:
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    cfg = load_config(args, ckpt.metadata)
    datasets = pl.build_datasets(cfg, args.dataset_cache)
    report = pl.run_eval(
        cfg,
        ckpt.params,
        ckpt.posterior,
        datasets=datasets,
        disalign_params=_disalign_from_metadata(ckpt.metadata),
    )
    outdir = _outdir(cfg)
    _write_report(outdir, "eval_report", report)
    _write_bins(os.path.join(outdir, "eval_bins.csv"), report.bins)
    print(f"wrote {os.path.join(outdir, 'eval_report.json')}")
    return 0


def cmd_analyze(args) -> int:
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    cfg = load_config(args, ckpt.metadata)
    datasets = pl.build_datasets(cfg, args.dataset_cache)
    result = pl.run_analyze(cfg, ckpt.params, ckpt.posterior, datasets=datasets)
    outdir = _outdir(cfg)

    with open(os.path.join(outdir, "instance_metrics.csv"), "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "label", "nll", "dispersion_repr", "dispersion_prob"])
        for i in range(len(result.labels)):
            writer.writerow(
                [
                    i,
                    int(result.labels[i]),
                    repr(float(result.nll_per_instance[i])),
                    repr(float(result.dispersion_repr[i])),
                    repr(float(result.dispersion_prob[i])),
                ]
            )

    def write_quartiles(stem, qa):
        with open(os.path.join(outdir, stem), "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["group", "count", "min", "q1", "median", "q3", "max"])
            for gi, box in enumerate(qa.groups, start=1):
                writer.writerow(
                    [f"Q{gi}", box.count, box.minimum, box.q1, box.median, box.q3, box.maximum]
                )

    write_quartiles("quartiles_repr.csv", result.quartiles_repr)
    write_quartiles("quartiles_prob.csv", result.quartiles_prob)

    with open(os.path.join(outdir, "per_class.csv"), "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["class", "train_count", "split", "weight_norm", "marginal"])
        for k in range(len(result.class_counts)):
            writer.writerow(
                [
                    k,
                    int(result.class_counts[k]),
                    result.class_splits[k],
                    repr(float(result.diagnostics.weight_norms[k])),
                    repr(float(result.diagnostics.marginal[k])),
                ]
            )
    _write_bins(os.path.join(outdir, "reliability_bins.csv"), result.diagnostics.bins)

    summary = result.report.to_json_dict()
    summary["pcc_repr_defined"] = result.quartiles_repr.pcc_defined
    summary["pcc_prob_defined"] = result.quartiles_prob.pcc_defined
    summary["num_instances"] = int(len(result.labels))
    _write_json(os.path.join(outdir, "analysis_summary.json"), summary)
    print(f"wrote {os.path.join(outdir, 'analysis_summary.json')}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    result = pl.run_sweep(cfg)
    outdir = _outdir(cfg)
    table_path = os.path.join(outdir, "sweep_table.csv")
    with open(table_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        header = ["method"]
        for key in pl.SWEEP_METRIC_KEYS:
            header += [f"{key}_mean", f"{key}_std"]
        writer.writerow(header)
        for row in result.aggregate():
            writer.writerow(
                [row["method"]]
                + [repr(row[f"{k}_{s}"]) for k in pl.SWEEP_METRIC_KEYS for s in ("mean", "std")]
            )
    with open(os.path.join(outdir, "sweep_runs.csv"), "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["seed", "method"] + list(pl.SWEEP_METRIC_KEYS))
        for entry in result.per_seed:
            for method, report in entry["rows"].items():
                writer.writerow(
                    [entry["seed"], method]
                    + [repr(getattr(report, k)) for k in pl.SWEEP_METRIC_KEYS]
                )
    print(f"wrote {table_path}")
    if result.failures:
        for seed, msg in result.failures:
            print(f"error: seed {seed} failed: {msg}", file=sys.stderr)
        return 1
    return 0


COMMANDS = {
    "pretrain": cmd_pretrain,
    "retrain": cmd_retrain,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - single-line machine-parsable errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
