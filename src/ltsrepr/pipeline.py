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
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import balancing as bal
from . import data as data_mod
from . import metrics as metrics_mod
from . import netcore as net
from . import retrain as retrain_mod
from . import swag as swag_mod
from .checkpoint import Checkpoint, config_hash
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
            (self.analysis_seed >= 0, "eval.analysis_seed must be >= 0"),
        )


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    output_dir: str = "runs"

    def validate(self) -> None:
        check((all(v >= 0 for v in (self.seed, *self.seeds)), "run seeds must be >= 0"))


def _syntax_error(err: configparser.Error, source: str | None) -> str:
    """One line for INI text that configparser rejects: the file, when
    there is one, the line and what is wrong there."""
    line, what = getattr(err, "lineno", None), " ".join(str(err).split())
    if isinstance(err, configparser.MissingSectionHeaderError):
        what = f"{err.line.strip()!r} comes before any [section] header"
    elif isinstance(err, configparser.DuplicateOptionError):
        what = f"[{err.section}] {err.option} is set twice"
    elif isinstance(err, configparser.DuplicateSectionError):
        what = f"[{err.section}] appears twice"
    elif isinstance(err, configparser.ParsingError):
        line, what = err.errors[0][0], "not a [section] header, a key = value line or a comment"
    where = ", ".join(filter(None, [source, line and f"line {line}"]))
    return f"{where}: {what}" if where else what


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
        """Inverse of `to_dict`, also after a JSON round trip: each value is
        read as a config file holds it, so a list reads as a tuple and
        ``"no"`` as false."""
        check((isinstance(d, dict), "a config must map section names to their keys"))
        return cls._read(d)

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
    def from_text(cls, text: str, source: str | None = None) -> "ExperimentConfig":
        """Read INI text; ``source`` names the file it came from in errors.
        Text that is not INI raises one ValueError naming the line at fault."""
        parser = configparser.ConfigParser(interpolation=None)  # values are literal, as written
        try:
            parser.read_string(text)
        except configparser.Error as err:
            raise ValueError(_syntax_error(err, source)) from None
        return cls._read({name: dict(parser.items(name)) for name in parser.sections()})

    @classmethod
    def _read(cls, sections: dict) -> "ExperimentConfig":
        """The one reader of config files and metadata: {section: {key:
        value}} over the defaults, rejecting unknown names."""
        known = {f.name: f.default_factory() for f in fields(cls)}
        unknown_sections = set(sections) - set(known)
        if unknown_sections:
            raise ValueError(f"unknown config sections: {sorted(unknown_sections)}")
        out = {}
        for name, defaults in known.items():
            raw = sections.get(name, {})
            check((isinstance(raw, dict), f"[{name}] must map keys to values"))
            unknown = set(raw) - {sf.name for sf in fields(defaults)}
            if unknown:
                raise ValueError(f"unknown keys in [{name}]: {sorted(unknown)}")
            out[name] = replace(defaults, **{
                key: _parse_value(v, getattr(defaults, key), f"[{name}] {key}")
                for key, v in raw.items()
            })
        return cls(**out)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_text(f.read(), str(path))

    def canonical(self) -> "ExperimentConfig":
        """The experiment identity: where artifacts land is not part of it."""
        return replace(self, run=replace(self.run, output_dir=RunConfig().output_dir))

    def hash(self) -> str:
        return config_hash(self.canonical().to_text())

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


def _parse_value(value, default, where: str):
    """``value`` as a config file spells it (a list as `to_text` writes a
    tuple), read to the type of ``default``. Text a config file would not
    read back as itself (a line break, or space at either end) is
    rejected, and every error names ``where``, the ``[section] key``."""
    text = ",".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)
    try:
        check((len(text.splitlines()) <= 1 and text == text.strip(),
               f"{text!r} would not read back from a config file"))
        if isinstance(default, bool):
            lowered = text.lower()
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
        return text
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


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
    """The run's (train, test) pair standardized with training statistics:
    read from ``cache_path`` if that file exists (and was made for this
    dataset), else generated and, given a path, cached there. The generator
    returns the float32 values a cache stores, so both give the same bits."""
    key = data_mod.dataset_key(cfg.dataset, cfg.run.seed)
    if cache_path and os.path.exists(cache_path):
        train, test = data_mod.load_dataset_pair(cache_path, key)
    else:
        train, test = data_mod.make_longtail_dataset(cfg.dataset, cfg.run.seed)
        if cache_path:
            # the cache may sit in an output directory the CLI has not created yet
            os.makedirs(os.path.dirname(cache_path) or ".", exist_ok=True)
            data_mod.save_dataset_pair(cache_path, train, test, key)
    mean, std = data_mod.feature_standardizer(train.features)
    return tuple(replace(d, features=data_mod.apply_standardizer(d.features, mean, std))
                 for d in (train, test))


# ---------------------------------------------------------------------------
# Stage 1: representation learning
# ---------------------------------------------------------------------------

def _metadata(cfg: ExperimentConfig, stage: str, **extra) -> dict:
    """What a model records about the run that made it."""
    return {"format": 1, "stage": stage, "seed": cfg.run.seed,
            "config": cfg.canonical().to_dict(), "config_hash": cfg.hash(), **extra}


def run_pretrain(cfg: ExperimentConfig, datasets) -> tuple[Checkpoint, list[float]]:
    """Stage 1 on ``datasets`` (train, test): the model (the averaged
    weights and their posterior with averaging on, else the last SGD
    weights), rounded through float32 as a checkpoint stores it, and the
    mean training loss of each epoch. It is `run_pretrain_group`'s group of
    one, and raises what that group's seed fails with."""
    (result,) = run_pretrain_group([cfg], [datasets])
    if isinstance(result, Exception):
        raise result
    return result


def run_pretrain_group(cfgs: list[ExperimentConfig], datasets: list) -> list:
    """Stage 1 for configs that differ only in ``run.seed`` (anything else
    raises ValueError), each on its (train, test) ``datasets``, in
    lock-step: the seeds' parameters are the rows of one (S, P) float32
    block, and each batch takes one `backward` over the stack and one SGD
    step over the block. Returns, per config, what `run_pretrain` returns
    for it alone, or the exception that run raises.

    Each seed keeps its own init, batch and mixup streams, SWA captures
    and posterior, and the stack runs each member's arithmetic as its own
    run would, so every seed's result is the same bits. Each epoch draws a
    seed's spe * batch_size example indices in one call and slices them
    per step: numpy's int64 `integers` gives the same integers, and leaves
    the batch stream in the same state, as one draw per step. When the
    stack's finiteness gate fires, each member runs the step on its own: a
    member that raises fails with its own run's error and leaves the
    group, and the others keep that step's loss and gradients (nothing
    has moved yet) and go on.

    The extractor trains in float32 (see `netcore`): parameters,
    gradients, momentum and batches; the posterior's moments are float64."""
    first = cfgs[0]
    for cfg in cfgs:
        cfg.validate()
        check((_seed_config(cfg, first.run.seed) == first,
               "a stage-1 group's configs may differ only in run.seed"))
    trains = [train for train, _ in datasets]
    check((len({(t.num_examples, t.input_dim, t.num_classes) for t in trains}) == 1,
           "a stage-1 group's training splits must have the same shape"))
    seeds = [cfg.run.seed for cfg in cfgs]
    optim, swa, act = first.optim, first.swa, first.model.activation
    k = trains[0].num_classes
    init = [net.init_params(rng_stream(seed, STREAM_INIT), trains[0].input_dim,
                            first.model.hidden_sizes, first.model.repr_dim, k) for seed in seeds]
    shapes = init[0].shapes
    block = np.stack([p.flat for p in init], dtype=np.float32)
    # every seed's float32 rows in one table, so one gather per step fills the stacked batch
    table_x = np.concatenate([t.features for t in trains], dtype=np.float32)
    table_y = np.concatenate([t.labels for t in trains])
    n = trains[0].num_examples
    spe = data_mod.steps_per_epoch(n, optim.batch_size)
    total = spe * optim.epochs
    posteriors = [swag_mod.new_posterior(p) if swa.enabled else None for p in init]
    rng_batch = [rng_stream(seed, STREAM_BATCH) for seed in seeds]
    rng_mix = [rng_stream(seed, STREAM_MIXUP) for seed in seeds]
    results: list = [None] * len(cfgs)
    epoch_losses = [[] for _ in cfgs]
    live = list(range(len(cfgs)))  # the group's members, by index into cfgs

    def bind(block, momentum):
        # one ModelParams per seed over its row, and the model backward
        # trains, into one reused gradient block: the stack, or a group of
        # one's row, since numpy's 2-D calls cost less. SGD moves it whole.
        members = [net.ModelParams.from_flat(row, shapes) for row in block]
        stack = members[0] if len(members) == 1 else net.ModelParams.from_flat(block, shapes)
        grads = stack.like(np.empty_like(stack.flat))
        state = net.OptimState.for_arrays([stack.flat], optim)
        state.buffers[0][...] = momentum
        return stack, grads, ([stack.flat], [grads.flat], state), members

    stack, grads, sgd, members = bind(block, 0.0)
    scratch: dict = {}  # backward's temporaries, reused by every step
    batch = optim.batch_size
    for epoch in range(optim.epochs):
        epoch_idx = np.stack([
            data_mod.instance_balanced_indices(trains[j], spe * batch, rng_batch[j]) for j in live
        ])
        epoch_idx += np.array(live)[:, None] * n  # each seed's rows in the table
        step_idx = epoch_idx.reshape(len(live), spe, batch).swapaxes(0, 1)
        # row i + 1 holds step i's losses; summed in step order after row 0's zeros
        losses = np.zeros((spe + 1, len(live)))
        for i in range(spe):
            step = epoch * spe + i
            if swa.enabled:
                lr = swag_mod.swa_learning_rate(step, total, optim.lr, swa)
            else:
                lr = net.cosine_lr(step, total, optim.lr)
            x, y = table_x[step_idx[i]], table_y[step_idx[i]]
            if optim.mixup_alpha > 0.0:
                mixed = [data_mod.mixup_batch(x[m], y[m], optim.mixup_alpha, k, rng_mix[j])
                         for m, j in enumerate(live)]
                x, y = np.stack([mx for mx, _ in mixed]), np.stack([mt for _, mt in mixed])
            one = len(live) == 1  # a group of one trains its row (see bind)
            try:
                loss, _ = net.backward(stack, x[0] if one else x, y[0] if one else y,
                                       activation=act, out=grads, scratch=scratch)
            except FloatingPointError:
                # each member's own step: its own run's error, or its loss and gradients
                kept, loss, keep = [], [], []
                for m, j in enumerate(live):
                    try:
                        loss_m, grads_m = net.backward(members[m], x[m], y[m], activation=act)
                        kept.append(grads_m.flat)
                        loss.append(loss_m)
                        keep.append(m)
                    except FloatingPointError as exc:
                        results[j] = exc
                if not keep:
                    return results
                live, loss = [live[m] for m in keep], np.array(loss)
                momentum = sgd[2].buffers[0].reshape(len(members), -1)[keep]
                stack, grads, sgd, members = bind(np.stack([members[m].flat for m in keep]),
                                                  momentum)
                grads.flat[...] = np.stack(kept).reshape(grads.flat.shape)
                step_idx, losses = step_idx[:, keep], losses[:, keep]
            net.sgd_update_arrays(*sgd, lr)
            losses[i + 1] = loss
        # captures fall on epoch boundaries only
        if swa.enabled and swag_mod.should_capture((epoch + 1) * spe, total, swa, spe):
            for m, j in enumerate(live):
                swag_mod.update_moments(posteriors[j], members[m])
        running = np.add.accumulate(losses)[-1]
        for m, j in enumerate(live):
            epoch_losses[j].append(running[m] / spe)

    for m, j in enumerate(live):
        params, posterior = members[m], posteriors[j]
        try:
            if swa.enabled:
                swag_mod.freeze(posterior)
                params = swag_mod.swa_params(posterior)
            model = Checkpoint(params, posterior, _metadata(cfgs[j], "pretrain", swa=swa.enabled))
            results[j] = model.rounded(), epoch_losses[j]
        except ValueError as exc:  # a value float32 cannot hold, as its own run raises
            results[j] = exc
    return results


# ---------------------------------------------------------------------------
# Stage 2: classifier re-training
# ---------------------------------------------------------------------------

def retrain_epochs(cfg: ExperimentConfig) -> int:
    return max(1, int(round_half_up(cfg.optim.epochs * cfg.retrain.epochs_frac)))


def run_retrain(cfg: ExperimentConfig, model: Checkpoint, datasets) -> Checkpoint:
    """Stage 2 from ``model``: a new model with the same extractor and
    posterior, whose metadata records the method, lws's τ and disalign's
    calibration, rounded through float32 as a checkpoint stores it. Every
    method trains on one forward of the training split through the frozen
    extractor, with the model's activation."""
    cfg.validate()
    train, _ = datasets
    params, posterior = model.params, model.posterior
    method = cfg.retrain.method
    seed = cfg.run.seed
    act = cfg.model.activation
    spec = bal.BalancingSpec(cfg.retrain.balance, cfg.retrain.balance_rho, train.frequencies)
    optim = replace(cfg.optim, lr=cfg.retrain.lr, epochs=retrain_epochs(cfg))
    theta, phi_star = params.layers, (params.w, params.b)
    feats = net.features(theta, train.features, act)
    rng = rng_stream(seed, STREAM_RETRAIN_BATCH)
    meta = _metadata(cfg, "retrain", method=method, balance=cfg.retrain.balance,
                     balance_rho=cfg.retrain.balance_rho)

    if method == "crt":
        w, b = retrain_mod.crt(feats, train, spec, optim, rng)
    elif method == "lws":
        w, b, meta["lws_tau"] = retrain_mod.lws(feats, phi_star, train, spec, optim, rng)
    elif method == "disalign":
        meta["disalign"] = retrain_mod.disalign(
            feats, phi_star, train, optim, rng, rho=cfg.retrain.balance_rho
        ).to_dict()
        w, b = phi_star
    else:  # srepr
        w, b = retrain_mod.srepr_retrain(
            feats, theta, posterior, phi_star, train, spec, cfg.retrain, optim, rng, act
        )
    return Checkpoint(net.ModelParams(theta, w, b), posterior, meta).rounded()


# ---------------------------------------------------------------------------
# Evaluation and analysis
# ---------------------------------------------------------------------------

def run_eval(cfg: ExperimentConfig, model: Checkpoint, datasets) -> metrics_mod.MetricsReport:
    """Metrics of the model on the test split: point predictions, or the
    mean over ``eval.ensemble_m`` posterior members, calibrated by the
    model's disalign calibration when it has one. Every extractor forward
    runs in float32 (`metrics.point_probs`, `metrics.posterior_sums`)."""
    cfg.validate()
    train, test = datasets
    params, calibration = model.params, model.calibration()
    act = cfg.model.activation
    if cfg.eval.ensemble_m > 0:
        if model.posterior is None:
            raise ValueError("posterior required for ensemble evaluation")
        rng = rng_stream(cfg.run.seed, STREAM_ENSEMBLE)
        probs = metrics_mod.ensemble_predict(test.features, model.posterior, params.w, params.b,
                                             cfg.eval.ensemble_m, rng, act, calibration)
    else:
        probs = metrics_mod.point_probs(test.features, params, act, calibration)
    return metrics_mod.evaluate_probs(probs, test.labels, train.splits, cfg.eval.ece_bins)


@dataclass
class AnalysisResult:
    nll_per_instance: np.ndarray
    dispersion_repr: np.ndarray
    dispersion_prob: np.ndarray
    quartiles_repr: metrics_mod.QuartileAnalysis
    quartiles_prob: metrics_mod.QuartileAnalysis
    report: metrics_mod.MetricsReport


def run_analyze(cfg: ExperimentConfig, model: Checkpoint, datasets) -> AnalysisResult:
    """Dispersion, quartile and per-class tables for one model, reducing its
    members as they arrive. Predictions are calibrated as in `run_eval`."""
    cfg.validate()
    if model.posterior is None:
        raise ValueError("posterior required for dispersion analysis")
    train, test = datasets
    params, calibration = model.params, model.calibration()
    act = cfg.model.activation
    rng = rng_stream(cfg.eval.analysis_seed, STREAM_ANALYSIS)
    sums = metrics_mod.posterior_sums(test.features, model.posterior, params.w, params.b,
                                      cfg.swa.swag_samples, rng, act, calibration, reps=True)
    point_probs = metrics_mod.point_probs(test.features, params, act, calibration)

    nll_i = net.cross_entropy(point_probs, test.labels)
    disp_r = metrics_mod.dispersion_repr(sums)
    disp_p = metrics_mod.dispersion_prob(sums)
    quart_r = metrics_mod.quartile_analysis(nll_i, disp_r)
    quart_p = metrics_mod.quartile_analysis(nll_i, disp_p)
    report = metrics_mod.evaluate_probs(point_probs, test.labels, train.splits, cfg.eval.ece_bins)
    report.pcc_repr, report.pcc_prob = quart_r.pcc, quart_p.pcc
    report.per_class_weight_norm = np.linalg.norm(params.w, axis=0).tolist()
    report.per_class_marginal = point_probs.mean(axis=0).tolist()
    return AnalysisResult(nll_i, disp_r, disp_p, quart_r, quart_p, report)


# ---------------------------------------------------------------------------
# Multi-seed sweep
# ---------------------------------------------------------------------------

def _seed_config(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(cfg, run=replace(cfg.run, seed=seed))


def _sweep_worker(cfg: ExperimentConfig, seeds) -> tuple[list[dict], list[tuple[int, str]]]:
    """One group of `run_sweep`'s seeds, as one process-pool task: stage 1
    for the whole group in lock-step (`run_pretrain_group`), then per seed
    an eval, a retrain and its eval. Returns the completed seeds' reports
    and the failed seeds' errors, each in seed order."""
    cfgs = [_seed_config(cfg, seed) for seed in seeds]
    datasets = [build_datasets(scfg) for scfg in cfgs]
    repr_name = "swa" if cfg.swa.enabled else "sgd"
    per_seed, failures = [], []
    for scfg, ds, pre in zip(cfgs, datasets, run_pretrain_group(cfgs, datasets)):
        seed = scfg.run.seed
        if isinstance(pre, Exception):
            failures.append((seed, str(pre)))
            continue
        model = pre[0]
        try:
            pre_report = run_eval(scfg, model, ds)
            ret_report = run_eval(scfg, run_retrain(scfg, model, ds), ds)
            per_seed.append({"seed": seed, "rows": {
                repr_name: pre_report, f"{repr_name}+{cfg.retrain.method}": ret_report}})
        except Exception as exc:  # noqa: BLE001 - partial sweeps must report
            failures.append((seed, str(exc)))
    return per_seed, failures


@dataclass
class SweepResult:
    per_seed: list[dict]
    failures: list[tuple[int, str]]
    methods: list[str]

    def aggregate(self) -> list[dict]:
        """mean and population std per method over completed seeds; a
        metric no seed defines is left out."""
        rows = []
        for method in self.methods:
            row = {"method": method}
            for k in metrics_mod.REPORT_SCALARS:
                vs = [v for e in self.per_seed if (v := getattr(e["rows"][method], k)) is not None]
                if vs:
                    row[f"{k}_mean"] = float(np.mean(vs))
                    row[f"{k}_std"] = float(np.std(vs))
            rows.append(row)
        return rows


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Every seed of ``run.seeds`` through pretrain, eval, retrain and eval.
    The seeds split into min(LTSREPR_THREADS, seeds) contiguous groups, one
    `_sweep_worker` task each, in a forked process pool when there is more
    than one group. Reports and failures come back in seed order."""
    cfg.validate()
    seeds = cfg.run.seeds
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    try:
        workers = int(os.environ.get("LTSREPR_THREADS", "1") or "1")
    except ValueError as exc:
        raise ValueError(f"LTSREPR_THREADS: {exc}") from None
    check((workers >= 1, f"LTSREPR_THREADS: must be at least 1, got {workers}"))
    n = min(workers, len(seeds))
    q, r = divmod(len(seeds), n)  # the first r groups take one seed more
    bounds = [g * q + min(g, r) for g in range(n + 1)]
    groups = [seeds[a:b] for a, b in zip(bounds, bounds[1:])]
    per_seed, failures = [], []
    with ProcessPoolExecutor(max_workers=n) if n > 1 else nullcontext() as pool:
        tasks = [pool.submit(_sweep_worker, cfg, group).result if pool
                 else partial(_sweep_worker, cfg, group) for group in groups]
        for group, task in zip(groups, tasks):
            try:
                done, failed = task()
            except Exception as exc:  # noqa: BLE001 - partial sweeps must report
                done, failed = [], [(seed, str(exc)) for seed in group]
            per_seed += done
            failures += failed
    repr_name = "swa" if cfg.swa.enabled else "sgd"
    methods = [repr_name, f"{repr_name}+{cfg.retrain.method}"]
    return SweepResult(per_seed=per_seed, failures=failures, methods=methods)
