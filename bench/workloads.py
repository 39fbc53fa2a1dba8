"""The benchmark's workloads: inputs made from the workload seed, the CLI
calls of one round, and the headline quality read back from the artifacts.

Every round of a run repeats the same CLI calls on the same program seeds,
so each round does identical work and must write identical bytes.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import ltsrepr.data as data_mod
import ltsrepr.pipeline as pl
from checks import read_json

ENSEMBLE_M = 8
DESK_METHODS = ("crt", "lws", "disalign", "srepr")
# Eight seeds keep the seed-to-seed spread of the averaged quality metrics
# below a third of their bounds; four left NLL at 9%.
DESK_SEEDS_PER_ROUND = 8
SWEEP_SEEDS = 16
SWEEP_THREADS = "2"

# ROADMAP's wide profile (K=20, D=64, hidden 256,256, repr 128) cut to
# max_count 1000 and 20 epochs, which still leaves 5 SWA captures.
WIDE_INI = """\
[dataset]
num_classes = 20
input_dim = 64
max_count = 1000

[model]
hidden_sizes = 256,256
repr_dim = 128

[optim]
epochs = 20
"""

# Files each subcommand writes, as the README lists them.
ARTIFACTS = {
    "pretrain": ("pretrain.ckpt", "pretrain_metrics.json"),
    "retrain": ("retrain.ckpt",),
    "eval": ("eval_report.json", "eval_report.csv", "eval_bins.csv"),
    "analyze": (
        "instance_metrics.csv",
        "quartiles_repr.csv",
        "quartiles_prob.csv",
        "per_class.csv",
        "reliability_bins.csv",
        "analysis_summary.json",
    ),
    "sweep": ("sweep_table.csv", "sweep_runs.csv"),
}


@dataclass
class Op:
    """One CLI call. `work` maps a training stage ("pretrain", "retrain")
    to the examples this call pushes through it, for the throughputs."""

    command: str
    argv: list[str]
    outdir: str
    work: dict = field(default_factory=dict)

    @property
    def artifacts(self) -> list[str]:
        return [os.path.join(self.outdir, a) for a in ARTIFACTS[self.command]]


@dataclass
class Workload:
    name: str
    seed: int
    program_seeds: list[int]
    config_text: str | None = None
    env: dict = field(default_factory=dict)

    @property
    def uses_pool(self) -> bool:
        return self.name == "desk-sweep"

    def config(self, program_seed: int) -> pl.ExperimentConfig:
        cfg = pl.ExperimentConfig.from_text(self.config_text) if self.config_text else pl.ExperimentConfig()
        return pl.apply_overrides(cfg, {"run.seed": program_seed})

    def config_path(self, root: str) -> str:
        return os.path.join(root, "workload.ini")

    def cache_path(self, root: str, program_seed: int) -> str:
        return os.path.join(root, f"dataset-{program_seed}.bin")

    def prepare(self, root: str) -> None:
        """Write the config and generate every dataset the rounds read."""
        os.makedirs(root, exist_ok=True)
        if self.config_text:
            with open(self.config_path(root), "w", encoding="utf-8") as f:
                f.write(self.config_text)
        if self.uses_pool:
            return  # sweep workers generate their own datasets
        for s in self.program_seeds:
            pl.build_datasets(self.config(s), self.cache_path(root, s))

    def stage_examples(self) -> tuple[int, int]:
        """Examples one stage-1 run and one stage-2 run process."""
        cfg = self.config(self.program_seeds[0])
        d = cfg.dataset
        n = int(data_mod.longtail_class_counts(d.num_classes, d.max_count, d.imbalance_factor).sum())
        per_epoch = data_mod.steps_per_epoch(n, cfg.optim.batch_size) * cfg.optim.batch_size
        return per_epoch * cfg.optim.epochs, per_epoch * pl.retrain_epochs(cfg)

    def chains(self, root: str, round_dir: str) -> list[list[Op]]:
        """The round's CLI calls; a chain stops at its first failed call."""
        pre_ex, ret_ex = self.stage_examples()
        if self.uses_pool:
            seeds = ",".join(str(s) for s in self.program_seeds)
            argv = ["sweep", "--seeds", seeds, "--retrain", "crt", "--output-dir", round_dir]
            n = len(self.program_seeds)
            return [[Op("sweep", argv, round_dir, {"pretrain": n * pre_ex, "retrain": n * ret_ex})]]
        methods = DESK_METHODS if self.name == "desk-cli" else ("srepr",)
        config = ["--config", self.config_path(root)] if self.config_text else []
        out = []
        for s in self.program_seeds:
            d = os.path.join(round_dir, f"seed{s}")
            cache = ["--dataset-cache", self.cache_path(root, s)]
            ckpt = os.path.join(d, "pretrain.ckpt")
            chain = [Op("pretrain", ["pretrain", "--seed", str(s), "--output-dir", d] + config + cache, d, {"pretrain": pre_ex})]
            for m in methods:
                md = os.path.join(d, m)
                chain.append(
                    Op(
                        "retrain",
                        ["retrain", "--checkpoint", ckpt, "--retrain", m, "--output-dir", md] + cache,
                        md,
                        {"retrain": ret_ex} if m == "srepr" else {},
                    )
                )
                chain.append(
                    Op(
                        "eval",
                        ["eval", "--checkpoint", os.path.join(md, "retrain.ckpt"), "--ensemble-m", str(ENSEMBLE_M), "--output-dir", md] + cache,
                        md,
                    )
                )
            sd = os.path.join(d, "srepr")
            chain.append(Op("analyze", ["analyze", "--checkpoint", os.path.join(sd, "retrain.ckpt"), "--output-dir", sd] + cache, sd))
            out.append(chain)
        return out

    def quality(self, round_dir: str) -> dict[str, float]:
        """Headline model quality, averaged over the round's program seeds:
        the srepr model's point predictions, its M=8 ensemble NLL, and the
        stage-1 model; on desk-sweep the `swa+crt` and `swa` mean rows."""
        if self.uses_pool:
            rows = _read_csv_rows(os.path.join(round_dir, "sweep_table.csv"))
            by_method = {r["method"]: r for r in rows}
            head, pre = by_method["swa+crt"], by_method["swa"]
            q = {k: float(head[f"{k}_mean"]) for k in ("acc_all", "acc_few", "nll", "ece")}
            q["pre_nll"] = float(pre["nll_mean"])
            return q
        per_seed = {k: [] for k in ("acc_all", "acc_few", "nll", "ece", "pre_nll", "ens_nll")}
        for s in self.program_seeds:
            d = os.path.join(round_dir, f"seed{s}")
            summary = read_json(os.path.join(d, "srepr", "analysis_summary.json"))
            for k in ("acc_all", "acc_few", "nll", "ece"):
                per_seed[k].append(summary[k])
            per_seed["pre_nll"].append(read_json(os.path.join(d, "pretrain_metrics.json"))["nll"])
            per_seed["ens_nll"].append(read_json(os.path.join(d, "srepr", "eval_report.json"))["nll"])
        return {k: sum(v) / len(v) for k, v in per_seed.items()}


def _read_csv_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def make(name: str, seed: int) -> Workload:
    """The workload `name` with program seeds derived from `seed`."""
    if name == "desk-cli":
        k = DESK_SEEDS_PER_ROUND
        return Workload(name, seed, [k * seed + j for j in range(k)])
    if name == "wide-srepr":
        return Workload(name, seed, [seed], config_text=WIDE_INI)
    if name == "desk-sweep":
        k = SWEEP_SEEDS
        return Workload(name, seed, [k * seed + j for j in range(k)], env={"LTSREPR_THREADS": SWEEP_THREADS})
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


WORKLOADS = ("desk-cli", "wide-srepr", "desk-sweep")
