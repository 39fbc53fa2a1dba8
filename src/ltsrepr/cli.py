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


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file; flags override its values")
    p.add_argument("--output-dir", help="directory for artifacts")
    p.add_argument("--seed", type=int, help="run seed (dataset + training streams)")
    p.add_argument("--dataset-cache", help="binary dataset cache file (train+test records)")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden-sizes", help="comma-separated hidden layer widths")
    p.add_argument("--repr-dim", type=int, help="representation dimension")
    p.add_argument("--lr", type=float, help="stage-1 base learning rate")
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--epochs", type=int, help="stage-1 epochs")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--mixup-alpha", type=float, help="stage-1 mixup (0 disables)")


def _add_swa_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--swa", choices=["on", "off"], help="enable weight averaging")
    p.add_argument("--swa-start-frac", type=float)
    p.add_argument("--swa-lr", type=float)
    p.add_argument("--swag-samples", type=int, help="posterior draws for analysis/ensembling")


def _add_retrain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--retrain", choices=list(pl.RETRAIN_METHODS), help="stage-2 method")
    p.add_argument("--balance", choices=["none", "cbs", "grw", "la"])
    p.add_argument("--balance-rho", type=float)
    p.add_argument("--retrain-epochs-frac", type=float)
    p.add_argument("--retrain-lr", type=float)
    p.add_argument("--srepr-m", type=int)
    p.add_argument("--kd-temp", type=float)
    p.add_argument("--beta-floor", type=float)
    p.add_argument("--stochastic-source", choices=["posterior", "jitter"])
    p.add_argument("--jitter-std", type=float)


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ece-bins", type=int)
    p.add_argument("--ensemble-m", type=int)
    p.add_argument("--analysis-seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltsrepr",
        description="Long-tailed classification experiments: decoupled training "
        "with weight averaging and stochastic-representation distillation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="stage-1 representation learning")
    _add_config_flags(p)
    _add_model_flags(p)
    _add_swa_flags(p)

    p = sub.add_parser("retrain", help="stage-2 classifier re-training")
    _add_config_flags(p)
    _add_retrain_flags(p)
    p.add_argument("--checkpoint", required=True, help="stage-1 checkpoint")

    p = sub.add_parser("eval", help="metrics report for a checkpoint")
    _add_config_flags(p)
    _add_eval_flags(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("analyze", help="dispersion/quartile/diagnostic tables")
    _add_config_flags(p)
    _add_eval_flags(p)
    p.add_argument("--swag-samples", type=int)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("sweep", help="full pipeline over a list of seeds")
    _add_config_flags(p)
    _add_model_flags(p)
    _add_swa_flags(p)
    _add_retrain_flags(p)
    p.add_argument("--seeds", help="comma-separated seed list")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """Map flags onto section.key config paths."""
    get = lambda name: getattr(args, name, None)  # noqa: E731
    hidden = get("hidden_sizes")
    if hidden is not None:
        hidden = tuple(int(v) for v in hidden.replace(",", " ").split())
    seeds = get("seeds")
    if seeds is not None:
        seeds = tuple(int(v) for v in seeds.replace(",", " ").split())
    swa = get("swa")
    source = get("stochastic_source")
    if source == "jitter":
        source = "input_jitter"
    return {
        "model.hidden_sizes": hidden,
        "model.repr_dim": get("repr_dim"),
        "optim.lr": get("lr"),
        "optim.momentum": get("momentum"),
        "optim.weight_decay": get("weight_decay"),
        "optim.epochs": get("epochs"),
        "optim.batch_size": get("batch_size"),
        "optim.mixup_alpha": get("mixup_alpha"),
        "swa.enabled": None if swa is None else swa == "on",
        "swa.start_frac": get("swa_start_frac"),
        "swa.swa_lr": get("swa_lr"),
        "swa.swag_samples": get("swag_samples"),
        "retrain.method": get("retrain"),
        "retrain.balance": get("balance"),
        "retrain.balance_rho": get("balance_rho"),
        "retrain.epochs_frac": get("retrain_epochs_frac"),
        "retrain.lr": get("retrain_lr"),
        "retrain.srepr_m": get("srepr_m"),
        "retrain.kd_temp": get("kd_temp"),
        "retrain.beta_floor": get("beta_floor"),
        "retrain.stochastic_source": source,
        "retrain.jitter_std": get("jitter_std"),
        "eval.ece_bins": get("ece_bins"),
        "eval.ensemble_m": get("ensemble_m"),
        "eval.analysis_seed": get("analysis_seed"),
        "run.seed": get("seed"),
        "run.seeds": seeds,
        "run.output_dir": get("output_dir"),
    }


def load_config(args: argparse.Namespace, metadata: dict | None = None) -> pl.ExperimentConfig:
    """Defaults <- checkpoint metadata <- config file <- flags, validated
    before any command touches the output directory."""
    if getattr(args, "config", None):
        cfg = pl.ExperimentConfig.from_file(args.config)
    elif metadata and "config" in metadata:
        cfg = pl.ExperimentConfig.from_dict(metadata["config"])
    else:
        cfg = pl.ExperimentConfig()
    return pl.apply_overrides(cfg, _overrides_from_args(args)).validate()


def _outdir(cfg: pl.ExperimentConfig) -> str:
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
    outdir = _outdir(cfg)
    result = pl.run_pretrain(cfg, cache_path=args.dataset_cache)
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
    outdir = _outdir(cfg)
    datasets = pl.build_datasets(cfg, args.dataset_cache)
    result = pl.run_retrain(cfg, ckpt.params, ckpt.posterior, datasets=datasets)
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
    outdir = _outdir(cfg)
    datasets = pl.build_datasets(cfg, args.dataset_cache)
    report = pl.run_eval(
        cfg,
        ckpt.params,
        ckpt.posterior,
        datasets=datasets,
        disalign_params=_disalign_from_metadata(ckpt.metadata),
    )
    _write_report(outdir, "eval_report", report)
    _write_bins(os.path.join(outdir, "eval_bins.csv"), report.bins)
    print(f"wrote {os.path.join(outdir, 'eval_report.json')}")
    return 0


def cmd_analyze(args) -> int:
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    cfg = load_config(args, ckpt.metadata)
    outdir = _outdir(cfg)
    datasets = pl.build_datasets(cfg, args.dataset_cache)
    result = pl.run_analyze(cfg, ckpt.params, ckpt.posterior, datasets=datasets)

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
    outdir = _outdir(cfg)
    result = pl.run_sweep(cfg)
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
