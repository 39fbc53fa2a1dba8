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
    rng_stream,
    round_half_up,
)

RETRAIN_METHODS = ("crt", "lws", "disalign", "srepr")


@dataclass(frozen=True)
class ModelConfig:
    hidden_sizes: tuple[int, ...] = (64, 64)
    repr_dim: int = 32
    activation: str = "relu"


@dataclass(frozen=True)
class OptimConfig:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.001
    epochs: int = 60
    batch_size: int = 64
    mixup_alpha: float = 0.0


@dataclass(frozen=True)
class SwaConfig:
    enabled: bool = True
    start_frac: float = 0.75
    swa_lr: float = 0.12
    swag_samples: int = 10


@dataclass(frozen=True)
class RetrainSection:
    method: str = "crt"
    balance: str = "cbs"
    balance_rho: float = 1.0
    epochs_frac: float = 0.10
    lr: float = 0.1
    srepr_m: int = 10
    kd_temp: float = 20.0
    beta_floor: float = 1e-6
    stochastic_source: str = "posterior"
    jitter_std: float = 0.1


@dataclass(frozen=True)
class EvalConfig:
    ece_bins: int = 15
    ensemble_m: int = 0
    analysis_seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    output_dir: str = "runs"


@dataclass(frozen=True)
class DatasetSection:
    num_classes: int = 10
    input_dim: int = 20
    max_count: int = 500
    imbalance_factor: float = 0.01
    class_separation: float = 4.0
    noise_std: float = 1.0
    test_per_class: int = 100


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    model: ModelConfig = field(default_factory=ModelConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    swa: SwaConfig = field(default_factory=SwaConfig)
    retrain: RetrainSection = field(default_factory=RetrainSection)
    eval: EvalConfig = field(default_factory=EvalConfig)
    run: RunConfig = field(default_factory=RunConfig)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        sections = {}
        for f in fields(cls):
            payload = dict(d.get(f.name, {}))
            if "hidden_sizes" in payload:
                payload["hidden_sizes"] = tuple(payload["hidden_sizes"])
            if "seeds" in payload:
                payload["seeds"] = tuple(payload["seeds"])
            sections[f.name] = f.default_factory(**payload) if payload else f.default_factory()
        return cls(**sections)

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
        parser = configparser.ConfigParser()
        parser.read_string(text)
        known = {f.name: f for f in fields(cls)}
        unknown_sections = set(parser.sections()) - set(known)
        if unknown_sections:
            raise ValueError(f"unknown config sections: {sorted(unknown_sections)}")
        sections = {}
        for name, f in known.items():
            section_cls = f.default_factory
            defaults = section_cls()
            if not parser.has_section(name):
                sections[name] = defaults
                continue
            raw = dict(parser.items(name))
            allowed = {sf.name: sf for sf in fields(section_cls)}
            unknown = set(raw) - set(allowed)
            if unknown:
                raise ValueError(f"unknown keys in [{name}]: {sorted(unknown)}")
            kwargs = {}
            for key, text_value in raw.items():
                kwargs[key] = _parse_value(text_value, getattr(defaults, key))
            sections[name] = replace(defaults, **kwargs)
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

        With averaging on, it also predicts how many snapshots stage 1 will
        capture, since ``freeze`` needs at least two.
        """
        dataset_config(self).validate()
        m, o, s, r, e = self.model, self.optim, self.swa, self.retrain, self.eval
        for ok, what in (
            (all(h >= 1 for h in m.hidden_sizes), "model.hidden_sizes must all be >= 1"),
            (m.repr_dim >= 1, "model.repr_dim must be >= 1"),
            (m.activation in net.ACTIVATIONS,
             f"model.activation must be one of {sorted(net.ACTIVATIONS)}"),
            (o.lr > 0.0, "optim.lr must be positive"),
            (0.0 <= o.momentum < 1.0, "optim.momentum must be in [0, 1)"),
            (o.weight_decay >= 0.0, "optim.weight_decay must be >= 0"),
            (o.epochs >= 1, "optim.epochs must be >= 1"),
            (o.batch_size >= 1, "optim.batch_size must be >= 1"),
            (o.mixup_alpha >= 0.0, "optim.mixup_alpha must be >= 0 (0 disables mixup)"),
            (s.swag_samples >= 1, "swa.swag_samples must be >= 1"),
            (r.method in RETRAIN_METHODS,
             f"unknown retrain method {r.method!r}; expected one of {RETRAIN_METHODS}"),
            (r.balance in bal.KINDS, f"retrain.balance must be one of {bal.KINDS}"),
            (r.balance_rho >= 0.0, "retrain.balance_rho must be >= 0"),
            (r.epochs_frac > 0.0, "retrain.epochs_frac must be positive"),
            (r.lr > 0.0, "retrain.lr must be positive"),
            (e.ece_bins >= 1, "eval.ece_bins must be >= 1"),
            (e.ensemble_m >= 0, "eval.ensemble_m must be >= 0 (0 means point predictions)"),
            (all(v >= 0 for v in (self.run.seed, *self.run.seeds)), "run seeds must be >= 0"),
        ):
            if not ok:
                raise ValueError(what)
        srepr_config(self).validate()
        if s.enabled:
            d = self.dataset
            counts = data_mod.longtail_class_counts(d.num_classes, d.max_count, d.imbalance_factor)
            spe = data_mod.steps_per_epoch(int(counts.sum()), o.batch_size)
            schedule = swa_schedule(self, spe)
            schedule.validate()
            total = spe * o.epochs
            captures = sum(swag_mod.should_capture(k * spe, total, schedule)
                           for k in range(1, o.epochs + 1))
            if captures < 2:
                raise ValueError(
                    f"weight averaging would capture {captures} snapshot(s) over {o.epochs} epochs "
                    f"with swa.start_frac {s.start_frac}; it needs >= 2 "
                    "(raise optim.epochs or lower swa.start_frac)"
                )
        return self


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
        parts = [p for p in text.replace(",", " ").split() if p]
        return tuple(int(p) for p in parts)
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

def dataset_config(cfg: ExperimentConfig) -> data_mod.DatasetConfig:
    d = cfg.dataset
    return data_mod.DatasetConfig(
        num_classes=d.num_classes,
        input_dim=d.input_dim,
        max_count=d.max_count,
        imbalance_factor=d.imbalance_factor,
        class_separation=d.class_separation,
        noise_std=d.noise_std,
        seed=cfg.run.seed,
        test_per_class=d.test_per_class,
    )


def swa_schedule(cfg: ExperimentConfig, steps_per_epoch: int) -> swag_mod.SwaSchedule:
    """Averaging schedule with captures on epoch boundaries."""
    return swag_mod.SwaSchedule(
        start_fraction=cfg.swa.start_frac,
        capture_interval_steps=steps_per_epoch,
        swa_lr=cfg.swa.swa_lr,
    )


def build_datasets(cfg: ExperimentConfig, cache_path: str | None = None):
    """Generate (or load from cache) the raw pair, then standardize both
    splits with training statistics."""
    if cache_path and not os.path.exists(cache_path):
        train_raw, test_raw = data_mod.make_longtail_dataset(dataset_config(cfg))
        # the cache may sit in an output directory the CLI has not created yet
        os.makedirs(os.path.dirname(cache_path) or ".", exist_ok=True)
        data_mod.save_dataset_pair(cache_path, train_raw, test_raw)
    if cache_path:
        # read back even on first use so cached and fresh runs see the same
        # float32-quantized features
        train_raw, test_raw = data_mod.load_dataset_pair(cache_path)
    else:
        train_raw, test_raw = data_mod.make_longtail_dataset(dataset_config(cfg))
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
    hyper = net.SgdHyper(
        base_lr=cfg.optim.lr,
        momentum=cfg.optim.momentum,
        weight_decay=cfg.optim.weight_decay,
        epochs=cfg.optim.epochs,
        batch_size=cfg.optim.batch_size,
    )
    params = net.init_params(
        rng_stream(seed, STREAM_INIT),
        train.input_dim,
        cfg.model.hidden_sizes,
        cfg.model.repr_dim,
        train.num_classes,
    )
    spe = data_mod.steps_per_epoch(train.num_examples, hyper.batch_size)
    total = spe * hyper.epochs
    schedule = swa_schedule(cfg, spe)
    posterior = swag_mod.new_posterior(params) if cfg.swa.enabled else None
    # backward writes into one reused gradient vector; SGD moves the whole model at once
    grads = params.like(np.empty_like(params.flat))
    flat_params, flat_grads = [params.flat], [grads.flat]
    state = net.OptimState.for_arrays(flat_params, hyper, total)
    rng_batch = rng_stream(seed, STREAM_BATCH)
    rng_mix = rng_stream(seed, STREAM_MIXUP)

    epoch_losses = []
    running = 0.0
    for step in range(total):
        if cfg.swa.enabled:
            lr = swag_mod.swa_learning_rate(step, total, hyper.base_lr, schedule)
        else:
            lr = net.cosine_lr(step, total, hyper.base_lr)
        idx = data_mod.instance_balanced_indices(train, hyper.batch_size, rng_batch)
        x, y = train.features[idx], train.labels[idx]
        loss_fn = net.softmax_ce
        if cfg.optim.mixup_alpha > 0.0:
            x, y = data_mod.mixup_batch(x, y, cfg.optim.mixup_alpha, train.num_classes, rng_mix)
            loss_fn = net.soft_ce_loss_and_grad
        loss, _ = net.backward(params, x, y, loss_fn, cfg.model.activation, out=grads)
        net.sgd_update_arrays(flat_params, flat_grads, state, lr)
        running += loss
        if cfg.swa.enabled and swag_mod.should_capture(step + 1, total, schedule):
            swag_mod.update_moments(posterior, params)
        if (step + 1) % spe == 0:
            epoch_losses.append(running / spe)
            running = 0.0

    if cfg.swa.enabled:
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


def balancing_spec(cfg: ExperimentConfig, train: data_mod.LongTailDataset) -> bal.BalancingSpec:
    return bal.BalancingSpec(
        kind=cfg.retrain.balance,
        rho=cfg.retrain.balance_rho,
        frequencies=train.frequencies,
    )


def srepr_config(cfg: ExperimentConfig) -> retrain_mod.SreprConfig:
    r = cfg.retrain
    return retrain_mod.SreprConfig(
        num_samples=r.srepr_m,
        kd_temperature=r.kd_temp,
        beta_floor=r.beta_floor,
        stochastic_source=r.stochastic_source,
        jitter_std=r.jitter_std,
    )


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
    spec = balancing_spec(cfg, train)
    hyper = net.SgdHyper(
        base_lr=cfg.retrain.lr,
        momentum=cfg.optim.momentum,
        weight_decay=cfg.optim.weight_decay,
        epochs=retrain_epochs(cfg),
        batch_size=cfg.optim.batch_size,
    )
    theta = params.layers
    rng = rng_stream(seed, STREAM_RETRAIN_BATCH)

    disalign_params = None
    lws_tau = None
    if method == "crt":
        w, b = retrain_mod.crt(theta, train, spec, hyper, rng, act)
    elif method == "lws":
        w, b, lws_tau = retrain_mod.lws(theta, (params.w, params.b), train, spec, hyper, rng, act)
    elif method == "disalign":
        disalign_params = retrain_mod.disalign(
            theta, (params.w, params.b), train, hyper, rng, act, rho=cfg.retrain.balance_rho
        )
        w, b = params.w, params.b
    else:  # srepr
        if cfg.retrain.stochastic_source == "posterior" and posterior is None:
            raise ValueError("posterior required for srepr re-training")
        w, b = retrain_mod.srepr_retrain(
            theta,
            posterior,
            (params.w, params.b),
            train,
            spec,
            srepr_config(cfg),
            hyper,
            rng,
            act,
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


def _sweep_worker(args):
    cfg_dict, seed = args
    cfg = ExperimentConfig.from_dict(cfg_dict)
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
            futures = [(s, pool.submit(_sweep_worker, (cfg.to_dict(), s))) for s in seeds]
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
