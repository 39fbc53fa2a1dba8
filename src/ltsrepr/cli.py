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
import functools
import json
import os
import sys

from . import checkpoint as ckpt_io
from . import data
from . import pipeline as pl
from .balancing import KINDS
from .metrics import REPORT_SCALARS
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
    "--swag-samples": ("swa.swag_samples", int, "posterior draws analyze makes (>= 2)",
                       ("pretrain", "analyze")),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: parsing leaves it unchanged, and building it costs more than
    a parse. Nothing builds it at import."""
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
        if command != "sweep":  # a cache holds one seed's dataset
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


def load_config(args: argparse.Namespace,
                base: pl.ExperimentConfig | None = None) -> pl.ExperimentConfig:
    """The config file if one is given, else ``base`` (a checkpoint's
    config), else the defaults; then the flags, which win. Validated
    before any command touches the output directory."""
    if getattr(args, "config", None):
        cfg = pl.ExperimentConfig.from_file(args.config)
    else:
        cfg = base or pl.ExperimentConfig()
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


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _cell(value) -> str:
    """A metric as a table cell: empty when it is undefined (None)."""
    return "" if value is None else repr(value)


def _write_report(outdir: str, stem: str, report) -> None:
    _write_json(os.path.join(outdir, f"{stem}.json"), report.to_json_dict())
    _write_csv(os.path.join(outdir, f"{stem}.csv"), ["metric", "value"],
               ([name, repr(value)] for name, value in report.csv_rows()))


def _write_bins(path: str, bins) -> None:
    _write_csv(path, ["bin", "lo", "hi", "count", "mean_confidence", "accuracy"],
               ([i, b.lo, b.hi, b.count, b.mean_confidence, b.accuracy]
                for i, b in enumerate(bins, start=1)))


def _load(args):
    """The model, config and datasets of a command that starts from a
    checkpoint: the config comes from the checkpoint unless a config file
    is given, and is validated before the datasets are built. A config
    whose dataset (the ``[dataset]`` section and the run seed) differs
    from the one in the checkpoint's metadata is rejected first."""
    model = ckpt_io.load_checkpoint(args.checkpoint)
    made = None
    if model.metadata and "config" in model.metadata:
        made = pl.ExperimentConfig.from_dict(model.metadata["config"])
    cfg = load_config(args, made)
    if made is not None:
        made_key = data.dataset_key(made.dataset, made.run.seed)
        key = data.dataset_key(cfg.dataset, cfg.run.seed)
        if key != made_key:
            raise ValueError(f"checkpoint {args.checkpoint} was made on the dataset {made_key}, "
                             f"not on this run's {key}")
    return model, cfg, pl.build_datasets(cfg, args.dataset_cache)


def cmd_pretrain(args) -> int:
    cfg = load_config(args)
    datasets = pl.build_datasets(cfg, args.dataset_cache)
    model, epoch_losses = pl.run_pretrain(cfg, datasets)
    outdir = _outdir(cfg)
    ckpt_path = os.path.join(outdir, "pretrain.ckpt")
    ckpt_io.save_checkpoint(ckpt_path, model)
    payload = pl.run_eval(cfg, model, datasets).to_json_dict()
    payload["epoch_losses"] = epoch_losses
    _write_json(os.path.join(outdir, "pretrain_metrics.json"), payload)
    print(f"wrote {ckpt_path}")
    return 0


def cmd_retrain(args) -> int:
    model, cfg, datasets = _load(args)
    model = pl.run_retrain(cfg, model, datasets)
    out_path = os.path.join(_outdir(cfg), "retrain.ckpt")
    ckpt_io.save_checkpoint(out_path, model)
    print(f"wrote {out_path}")
    return 0


def cmd_eval(args) -> int:
    model, cfg, datasets = _load(args)
    report = pl.run_eval(cfg, model, datasets)
    outdir = _outdir(cfg)
    _write_report(outdir, "eval_report", report)
    _write_bins(os.path.join(outdir, "eval_bins.csv"), report.bins)
    print(f"wrote {os.path.join(outdir, 'eval_report.json')}")
    return 0


def cmd_analyze(args) -> int:
    model, cfg, datasets = _load(args)
    train, test = datasets
    result = pl.run_analyze(cfg, model, datasets)
    report = result.report
    outdir = _outdir(cfg)

    per_instance = zip(test.labels, result.nll_per_instance,
                       result.dispersion_repr, result.dispersion_prob)
    _write_csv(
        os.path.join(outdir, "instance_metrics.csv"),
        ["index", "label", "nll", "dispersion_repr", "dispersion_prob"],
        ([i, int(label), *(repr(float(v)) for v in values)]
         for i, (label, *values) in enumerate(per_instance)),
    )
    for stem, qa in (("quartiles_repr", result.quartiles_repr),
                     ("quartiles_prob", result.quartiles_prob)):
        _write_csv(
            os.path.join(outdir, f"{stem}.csv"),
            ["group", "count", "min", "q1", "median", "q3", "max"],
            ([f"Q{gi}", box.count, box.minimum, box.q1, box.median, box.q3, box.maximum]
             for gi, box in enumerate(qa.groups, start=1)),
        )
    per_class = zip(train.class_counts, train.splits,
                    report.per_class_weight_norm, report.per_class_marginal)
    _write_csv(
        os.path.join(outdir, "per_class.csv"),
        ["class", "train_count", "split", "weight_norm", "marginal"],
        ([k, int(count), split, repr(norm), repr(marginal)]
         for k, (count, split, norm, marginal) in enumerate(per_class)),
    )
    _write_bins(os.path.join(outdir, "reliability_bins.csv"), report.bins)

    summary = report.to_json_dict()
    summary["pcc_repr_defined"] = report.pcc_repr is not None
    summary["pcc_prob_defined"] = report.pcc_prob is not None
    summary["num_instances"] = test.num_examples
    _write_json(os.path.join(outdir, "analysis_summary.json"), summary)
    print(f"wrote {os.path.join(outdir, 'analysis_summary.json')}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    result = pl.run_sweep(cfg)
    outdir = _outdir(cfg)
    table_path = os.path.join(outdir, "sweep_table.csv")
    stats = [f"{k}_{s}" for k in REPORT_SCALARS for s in ("mean", "std")]
    _write_csv(table_path, ["method", *stats],
               ([row["method"], *(_cell(row.get(c)) for c in stats)]
                for row in result.aggregate()))
    _write_csv(
        os.path.join(outdir, "sweep_runs.csv"),
        ["seed", "method", *REPORT_SCALARS],
        (
            [entry["seed"], method, *(_cell(getattr(report, k)) for k in REPORT_SCALARS)]
            for entry in result.per_seed
            for method, report in entry["rows"].items()
        ),
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
