"""Experiment configuration and end-to-end drivers.

A single run seed controls the synthetic dataset and every training /
sampling stream, so a fixed (config, seed) pair reproduces checkpoints and
reports bitwise. Configs live in an INI-style text file with typed sections;
command-line flags override file values.
"""

from __future__ import annotations

import configparser
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import balancing as bal
from . import checkpoint as ckpt_io
from . import data as data_mod
from . import metrics as metrics_mod
from . import netcore as net
from . import retrain as retrain_mod
from . import swag as swag_mod
from .util import (
    STREAM_ANALYSIS,
    STREAM_BATCH,
    STREAM_ENSEMBLE,
    STREAM_INIT,
    STREAM_MIXUP,
    STREAM_RETRAIN_BATCH,
    check,
    rng_stream,
    round_half_up,
)

@dataclass(frozen=True)
class ModelConfig:
    hidden_sizes: tuple[int, ...] = (64, 64)
    repr_dim: int = 32
    activation: str = "relu"

    def validate(self) -> None:
        check(
            (all(h >= 1 for h in self.hidden_sizes), "model.hidden_sizes must all be >= 1"),
            (self.repr_dim >= 1, "model.repr_dim must be >= 1"),
            (self.activation in net.ACTIVATIONS,
             f"model.activation must be one of {sorted(net.ACTIVATIONS)}"),
        )


@dataclass(frozen=True)
class EvalConfig:
    ece_bins: int = 15
    ensemble_m: int = 0
    analysis_seed: int = 0

    def validate(self) -> None:
        check(
            (self.ece_bins >= 1, "eval.ece_bins must be >= 1"),
            (self.ensemble_m >= 0, "eval.ensemble_m must be >= 0 (0 means point predictions)"),
        )


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    output_dir: str = "runs"

    def validate(self) -> None:
        check((all(v >= 0 for v in (self.seed, *self.seeds)), "run seeds must be >= 0"))


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment's config sections. Each section type lives in the
    module that consumes it and checks its own fields."""

    dataset: data_mod.DatasetConfig = field(default_factory=data_mod.DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    optim: net.OptimConfig = field(default_factory=net.OptimConfig)
    swa: swag_mod.SwaConfig = field(default_factory=swag_mod.SwaConfig)
    retrain: retrain_mod.RetrainConfig = field(default_factory=retrain_mod.RetrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    run: RunConfig = field(default_factory=RunConfig)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of `to_dict`, also after a JSON round trip (lists become
        tuples again)."""
        return cls(**{
            f.name: f.default_factory(**{
                k: tuple(v) if isinstance(v, list) else v for k, v in d.get(f.name, {}).items()
            })
            for f in fields(cls)
        })

    def to_text(self) -> str:
        """Canonical INI serialization (fixed section/key order)."""
        out = io.StringIO()
        for f in fields(self):
            section = getattr(self, f.name)
            out.write(f"[{f.name}]\n")
            for sf in fields(section):
                value = getattr(section, sf.name)
                if isinstance(value, tuple):
                    value = ",".join(str(v) for v in value)
                out.write(f"{sf.name} = {value}\n")
            out.write("\n")
        return out.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)  # values are literal, as written
        parser.read_string(text)
        known = {f.name: f for f in fields(cls)}
        unknown_sections = set(parser.sections()) - set(known)
        if unknown_sections:
            raise ValueError(f"unknown config sections: {sorted(unknown_sections)}")
        sections = {}
        for name, f in known.items():
            defaults = f.default_factory()
            raw = dict(parser.items(name)) if parser.has_section(name) else {}
            unknown = set(raw) - {sf.name for sf in fields(defaults)}
            if unknown:
                raise ValueError(f"unknown keys in [{name}]: {sorted(unknown)}")
            sections[name] = replace(
                defaults, **{key: _parse_value(v, getattr(defaults, key)) for key, v in raw.items()}
            )
        return cls(**sections)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_text(f.read())

    def canonical(self) -> "ExperimentConfig":
        """The experiment identity: where artifacts land is not part of it."""
        return replace(self, run=replace(self.run, output_dir=RunConfig().output_dir))

    def hash(self) -> str:
        return ckpt_io.config_hash(self.canonical().to_text())

    def validate(self) -> "ExperimentConfig":
        """Reject out-of-range values before any training starts; returns self.

        Every section checks its own fields. With averaging on, this also
        predicts how many snapshots stage 1 will capture, since ``freeze``
        needs at least two.
        """
        for f in fields(self):
            getattr(self, f.name).validate()
        d, o, s = self.dataset, self.optim, self.swa
        if s.enabled:
            counts = data_mod.longtail_class_counts(d.num_classes, d.max_count, d.imbalance_factor)
            spe = data_mod.steps_per_epoch(int(counts.sum()), o.batch_size)
            total = spe * o.epochs
            captures = sum(swag_mod.should_capture(k * spe, total, s, spe)
                           for k in range(1, o.epochs + 1))
            if captures < 2:
                raise ValueError(
                    f"weight averaging would capture {captures} snapshot(s) over {o.epochs} epochs "
                    f"with swa.start_frac {s.start_frac}; it needs >= 2 "
                    "(raise optim.epochs or lower swa.start_frac)"
                )
        return self


def parse_ints(text: str) -> tuple[int, ...]:
    """A comma- or space-separated list of integers, as config files and
    flags write ``hidden_sizes`` and ``seeds``."""
    return tuple(int(p) for p in text.replace(",", " ").split())


def _parse_value(text: str, default):
    if isinstance(default, bool):
        lowered = text.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean from {text!r}")
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        return float(text)
    if isinstance(default, tuple):
        return parse_ints(text)
    return text.strip()


def apply_overrides(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Apply flat {"section.key": value} overrides; None values are ignored."""
    per_section: dict[str, dict] = {}
    for dotted, value in overrides.items():
        if value is None:
            continue
        section, key = dotted.split(".", 1)
        per_section.setdefault(section, {})[key] = value
    out = cfg
    for section, kv in per_section.items():
        out = replace(out, **{section: replace(getattr(out, section), **kv)})
    return out


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

def build_datasets(cfg: ExperimentConfig, cache_path: str | None = None):
    """Generate (or load from cache) the raw pair, then standardize both
    splits with training statistics."""
    if cache_path and not os.path.exists(cache_path):
        train_raw, test_raw = data_mod.make_longtail_dataset(cfg.dataset, cfg.run.seed)
        # the cache may sit in an output directory the CLI has not created yet
        os.makedirs(os.path.dirname(cache_path) or ".", exist_ok=True)
        data_mod.save_dataset_pair(cache_path, train_raw, test_raw)
    if cache_path:
        # read back even on first use so cached and fresh runs see the same
        # float32-quantized features
        train_raw, test_raw = data_mod.load_dataset_pair(cache_path)
    else:
        train_raw, test_raw = data_mod.make_longtail_dataset(cfg.dataset, cfg.run.seed)
    mean, std = data_mod.feature_standardizer(train_raw.features)
    train = data_mod.LongTailDataset.from_arrays(
        data_mod.apply_standardizer(train_raw.features, mean, std),
        train_raw.labels,
        train_raw.num_classes,
        splits=train_raw.splits,
    )
    test = data_mod.LongTailDataset.from_arrays(
        data_mod.apply_standardizer(test_raw.features, mean, std),
        test_raw.labels,
        test_raw.num_classes,
        splits=train_raw.splits,
    )
    return train, test


# ---------------------------------------------------------------------------
# Stage 1: representation learning
# ---------------------------------------------------------------------------

@dataclass
class PretrainResult:
    params: net.ModelParams
    posterior: swag_mod.SwagPosterior | None
    epoch_losses: list[float]
    train: data_mod.LongTailDataset
    test: data_mod.LongTailDataset


def run_pretrain(cfg: ExperimentConfig, datasets=None, cache_path: str | None = None) -> PretrainResult:
    cfg.validate()
    train, test = datasets if datasets is not None else build_datasets(cfg, cache_path)
    seed = cfg.run.seed
    optim, swa = cfg.optim, cfg.swa
    params = net.init_params(
        rng_stream(seed, STREAM_INIT),
        train.input_dim,
        cfg.model.hidden_sizes,
        cfg.model.repr_dim,
        train.num_classes,
    )
    spe = data_mod.steps_per_epoch(train.num_examples, optim.batch_size)
    total = spe * optim.epochs
    posterior = swag_mod.new_posterior(params) if swa.enabled else None
    # backward writes into one reused gradient vector; SGD moves the whole model at once
    grads = params.like(np.empty_like(params.flat))
    flat_params, flat_grads = [params.flat], [grads.flat]
    state = net.OptimState.for_arrays(flat_params, optim, total)
    rng_batch = rng_stream(seed, STREAM_BATCH)
    rng_mix = rng_stream(seed, STREAM_MIXUP)

    epoch_losses = []
    running = 0.0
    for step in range(total):
        if swa.enabled:
            lr = swag_mod.swa_learning_rate(step, total, optim.lr, swa)
        else:
            lr = net.cosine_lr(step, total, optim.lr)
        idx = data_mod.instance_balanced_indices(train, optim.batch_size, rng_batch)
        x, y = train.features[idx], train.labels[idx]
        loss_fn = net.softmax_ce
        if optim.mixup_alpha > 0.0:
            x, y = data_mod.mixup_batch(x, y, optim.mixup_alpha, train.num_classes, rng_mix)
            loss_fn = net.soft_ce_loss_and_grad
        loss, _ = net.backward(params, x, y, loss_fn, cfg.model.activation, out=grads)
        net.sgd_update_arrays(flat_params, flat_grads, state, lr)
        running += loss
        if swa.enabled and swag_mod.should_capture(step + 1, total, swa, spe):
            swag_mod.update_moments(posterior, params)
        if (step + 1) % spe == 0:
            epoch_losses.append(running / spe)
            running = 0.0

    if swa.enabled:
        swag_mod.freeze(posterior)
        params = swag_mod.swa_params(posterior)
    return PretrainResult(params, posterior, epoch_losses, train, test)


def pretrain_metadata(cfg: ExperimentConfig) -> dict:
    return {
        "format": 1,
        "stage": "pretrain",
        "swa": cfg.swa.enabled,
        "seed": cfg.run.seed,
        "config": cfg.canonical().to_dict(),
        "config_hash": cfg.hash(),
    }


# ---------------------------------------------------------------------------
# Stage 2: classifier re-training
# ---------------------------------------------------------------------------

@dataclass
class RetrainResult:
    params: net.ModelParams
    disalign: retrain_mod.DisAlignParams | None
    lws_tau: float | None
    posterior: swag_mod.SwagPosterior | None


def retrain_epochs(cfg: ExperimentConfig) -> int:
    return max(1, int(round_half_up(cfg.optim.epochs * cfg.retrain.epochs_frac)))


def run_retrain(
    cfg: ExperimentConfig,
    params: net.ModelParams,
    posterior: swag_mod.SwagPosterior | None,
    datasets=None,
    cache_path: str | None = None,
) -> RetrainResult:
    cfg.validate()
    train, _ = datasets if datasets is not None else build_datasets(cfg, cache_path)
    method = cfg.retrain.method
    seed = cfg.run.seed
    act = cfg.model.activation
    spec = bal.BalancingSpec(cfg.retrain.balance, cfg.retrain.balance_rho, train.frequencies)
    optim = replace(cfg.optim, lr=cfg.retrain.lr, epochs=retrain_epochs(cfg))
    theta = params.layers
    rng = rng_stream(seed, STREAM_RETRAIN_BATCH)

    disalign_params = None
    lws_tau = None
    if method == "crt":
        w, b = retrain_mod.crt(theta, train, spec, optim, rng, act)
    elif method == "lws":
        w, b, lws_tau = retrain_mod.lws(theta, (params.w, params.b), train, spec, optim, rng, act)
    elif method == "disalign":
        disalign_params = retrain_mod.disalign(
            theta, (params.w, params.b), train, optim, rng, act, rho=cfg.retrain.balance_rho
        )
        w, b = params.w, params.b
    else:  # srepr
        w, b = retrain_mod.srepr_retrain(
            theta, posterior, (params.w, params.b), train, spec, cfg.retrain, optim, rng, act
        )
    # the constructor packs a new vector, so the result shares no memory with params
    new_params = net.ModelParams(theta, w, b)
    return RetrainResult(new_params, disalign_params, lws_tau, posterior)


def retrain_metadata(cfg: ExperimentConfig, result: RetrainResult) -> dict:
    meta = {
        "format": 1,
        "stage": "retrain",
        "method": cfg.retrain.method,
        "balance": cfg.retrain.balance,
        "balance_rho": cfg.retrain.balance_rho,
        "seed": cfg.run.seed,
        "config": cfg.canonical().to_dict(),
        "config_hash": cfg.hash(),
    }
    if result.lws_tau is not None:
        meta["lws_tau"] = result.lws_tau
    if result.disalign is not None:
        meta["disalign"] = result.disalign.to_dict()
    return meta


# ---------------------------------------------------------------------------
# Evaluation and analysis
# ---------------------------------------------------------------------------

def predictive_probs(
    cfg: ExperimentConfig,
    params: net.ModelParams,
    posterior: swag_mod.SwagPosterior | None,
    x: np.ndarray,
    disalign_params: retrain_mod.DisAlignParams | None = None,
) -> np.ndarray:
    """Point predictions, optionally posterior-ensembled and/or calibrated."""
    act = cfg.model.activation
    m = cfg.eval.ensemble_m
    if m > 0:
        if posterior is None:
            raise ValueError("posterior required for ensemble evaluation")
        calibrate = None
        if disalign_params is not None:
            calibrate = lambda z: retrain_mod.disalign_logits(z, disalign_params)  # noqa: E731
        rng = rng_stream(cfg.run.seed, STREAM_ENSEMBLE)
        return metrics_mod.ensemble_predict(
            x, posterior, params.w, params.b, m, rng, act, calibrate
        )
    z = net.model_logits(params, x, act)
    if disalign_params is not None:
        z = retrain_mod.disalign_logits(z, disalign_params)
    return net.softmax(z)


def run_eval(
    cfg: ExperimentConfig,
    params: net.ModelParams,
    posterior: swag_mod.SwagPosterior | None,
    datasets=None,
    disalign_params: retrain_mod.DisAlignParams | None = None,
    cache_path: str | None = None,
) -> metrics_mod.MetricsReport:
    cfg.validate()
    train, test = datasets if datasets is not None else build_datasets(cfg, cache_path)
    probs = predictive_probs(cfg, params, posterior, test.features, disalign_params)
    return metrics_mod.evaluate_probs(probs, test.labels, train.splits, cfg.eval.ece_bins)


@dataclass
class AnalysisResult:
    labels: np.ndarray
    nll_per_instance: np.ndarray
    dispersion_repr: np.ndarray
    dispersion_prob: np.ndarray
    quartiles_repr: metrics_mod.QuartileAnalysis
    quartiles_prob: metrics_mod.QuartileAnalysis
    diagnostics: metrics_mod.PerClassDiagnostics
    class_counts: np.ndarray
    class_splits: list[str]
    report: metrics_mod.MetricsReport


def run_analyze(
    cfg: ExperimentConfig,
    params: net.ModelParams,
    posterior: swag_mod.SwagPosterior | None,
    datasets=None,
    cache_path: str | None = None,
) -> AnalysisResult:
    cfg.validate()
    if posterior is None:
        raise ValueError("posterior required for dispersion analysis")
    train, test = datasets if datasets is not None else build_datasets(cfg, cache_path)
    act = cfg.model.activation
    rng = rng_stream(cfg.eval.analysis_seed, STREAM_ANALYSIS)
    m = max(cfg.swa.swag_samples, 2)
    reps = swag_mod.posterior_features(posterior, test.features, m, rng, act)
    member_probs = net.softmax(reps @ params.w + params.b)
    point_probs = net.predict_proba(params, test.features, act)

    nll_i = metrics_mod.per_instance_nll(point_probs, test.labels)
    disp_r = metrics_mod.dispersion_repr(reps)
    disp_p = metrics_mod.dispersion_prob(member_probs)
    quart_r = metrics_mod.quartile_analysis(nll_i, disp_r)
    quart_p = metrics_mod.quartile_analysis(nll_i, disp_p)
    diagnostics = metrics_mod.per_class_diagnostics(
        params.w, point_probs, test.labels, cfg.eval.ece_bins
    )
    report = metrics_mod.evaluate_probs(
        point_probs, test.labels, train.splits, cfg.eval.ece_bins
    )
    report.pcc_repr = quart_r.pcc if quart_r.pcc_defined else None
    report.pcc_prob = quart_p.pcc if quart_p.pcc_defined else None
    report.per_class_weight_norm = diagnostics.weight_norms.tolist()
    report.per_class_marginal = diagnostics.marginal.tolist()
    return AnalysisResult(
        labels=test.labels,
        nll_per_instance=nll_i,
        dispersion_repr=disp_r,
        dispersion_prob=disp_p,
        quartiles_repr=quart_r,
        quartiles_prob=quart_p,
        diagnostics=diagnostics,
        class_counts=train.class_counts,
        class_splits=train.splits,
        report=report,
    )


# ---------------------------------------------------------------------------
# Multi-seed sweep
# ---------------------------------------------------------------------------

SWEEP_METRIC_KEYS = ("acc_many", "acc_medium", "acc_few", "acc_all", "nll", "ece")


def _seed_config(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(cfg, run=replace(cfg.run, seed=seed))


def run_single_seed(cfg: ExperimentConfig, seed: int) -> dict:
    """Full pipeline for one seed: pretrain, eval, retrain, eval."""
    scfg = _seed_config(cfg, seed)
    datasets = build_datasets(scfg)
    pre = run_pretrain(scfg, datasets=datasets)
    pre_report = run_eval(scfg, pre.params, pre.posterior, datasets=datasets)
    ret = run_retrain(scfg, pre.params, pre.posterior, datasets=datasets)
    ret_report = run_eval(
        scfg, ret.params, ret.posterior, datasets=datasets, disalign_params=ret.disalign
    )
    repr_name = "swa" if scfg.swa.enabled else "sgd"
    return {
        "seed": seed,
        "rows": {
            repr_name: pre_report,
            f"{repr_name}+{scfg.retrain.method}": ret_report,
        },
    }


def _sweep_worker(cfg: ExperimentConfig, seed: int) -> dict:
    """One seed of `run_sweep` as a process-pool task."""
    return run_single_seed(cfg, seed)


@dataclass
class SweepResult:
    per_seed: list[dict]
    failures: list[tuple[int, str]]
    methods: list[str]

    def aggregate(self) -> list[dict]:
        """mean and population std per method over completed seeds."""
        rows = []
        for method in self.methods:
            values = {k: [] for k in SWEEP_METRIC_KEYS}
            for entry in self.per_seed:
                report = entry["rows"][method]
                for k in SWEEP_METRIC_KEYS:
                    v = getattr(report, k)
                    if v is not None:
                        values[k].append(v)
            row = {"method": method}
            for k in SWEEP_METRIC_KEYS:
                vs = np.asarray(values[k], dtype=np.float64)
                row[f"{k}_mean"] = float(vs.mean()) if vs.size else float("nan")
                row[f"{k}_std"] = float(vs.std()) if vs.size else float("nan")
            rows.append(row)
        return rows


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    cfg.validate()
    seeds = cfg.run.seeds
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    workers = int(os.environ.get("LTSREPR_THREADS", "1") or "1")
    per_seed = []
    failures = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
            futures = [(s, pool.submit(_sweep_worker, cfg, s)) for s in seeds]
            for seed, future in futures:
                try:
                    per_seed.append(future.result())
                except Exception as exc:  # noqa: BLE001 - partial sweeps must report
                    failures.append((seed, str(exc)))
    else:
        for seed in seeds:
            try:
                per_seed.append(run_single_seed(cfg, seed))
            except Exception as exc:  # noqa: BLE001 - partial sweeps must report
                failures.append((seed, str(exc)))
    repr_name = "swa" if cfg.swa.enabled else "sgd"
    methods = [repr_name, f"{repr_name}+{cfg.retrain.method}"]
    return SweepResult(per_seed=per_seed, failures=failures, methods=methods)
