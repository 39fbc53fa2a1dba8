"""Stage-2 classifier learning over a frozen feature extractor.

Baselines: re-training from scratch on class-balanced samples (crt),
learnable weight scaling of the pre-trained classifier (lws), and gated
affine logit calibration trained with generalized re-weighting (disalign).

The stochastic-representation method (srepr) draws M feature-extractor
samples per stage-2 epoch (or M input-jitter draws per batch), treats their
temperature-scaled predictions on each batch as a virtual teacher ensemble,
fits a per-example Dirichlet to the ensemble, and trains the classifier
with an equally weighted sum of the mean cross-entropy over stochastic
representations and a Dirichlet distillation loss. Gradients flow only
through the student concentrations; the teacher side is constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import digamma, gammaln, zeta

from .balancing import (
    KINDS,
    BalancingSpec,
    balanced_ce_loss_and_grad,
    grw_weights,
)
from .data import (
    LongTailDataset,
    class_balanced_indices,
    instance_balanced_indices,
    steps_per_epoch,
)
from .netcore import (
    PROB_FLOOR,
    OptimConfig,
    OptimState,
    classifier_logits,
    features,
    init_classifier,
    sgd_update_arrays,
    softmax,
    softmax_ce,
)
from .swag import SwagPosterior, fill_theta, posterior_features, theta_layers
from .util import check

LOGIT_CLAMP_SCALE = 30.0  # raw student logits clipped at +/- 30 * temperature

RETRAIN_METHODS = ("crt", "lws", "disalign", "srepr")
STOCHASTIC_SOURCES = ("posterior", "input_jitter")


@dataclass(frozen=True)
class RetrainConfig:
    """The ``[retrain]`` section: the stage-2 method, its rebalancing, its
    epochs as a fraction of stage 1's and its learning rate, then srepr's
    knobs: M stochastic representations (``srepr_m``), the distillation
    temperature, the floor of the teacher-disagreement statistic, and where
    the randomness comes from."""

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

    def validate(self) -> None:
        check(
            (self.method in RETRAIN_METHODS,
             f"unknown retrain method {self.method!r}; expected one of {RETRAIN_METHODS}"),
            (self.balance in KINDS, f"retrain.balance must be one of {KINDS}"),
            (self.balance_rho >= 0.0, "retrain.balance_rho must be >= 0"),
            (self.epochs_frac > 0.0, "retrain.epochs_frac must be positive"),
            (self.lr > 0.0, "retrain.lr must be positive"),
            (self.srepr_m >= 2, "retrain.srepr_m must be >= 2 to fit a Dirichlet"),
            (self.kd_temp > 0.0, "retrain.kd_temp must be positive"),
            (self.beta_floor > 0.0, "retrain.beta_floor must be positive"),
            (self.stochastic_source in STOCHASTIC_SOURCES,
             f"retrain.stochastic_source must be one of {STOCHASTIC_SOURCES}"),
            (self.jitter_std >= 0.0, "retrain.jitter_std must be >= 0"),
        )


def _stage2_sampler(spec: BalancingSpec):
    return class_balanced_indices if spec.uses_class_balanced_sampler else instance_balanced_indices


def stage2_steps(dataset: LongTailDataset, optim: OptimConfig) -> int:
    return steps_per_epoch(dataset.num_examples, optim.batch_size) * optim.epochs


def sampled_batches(sampler, dataset: LongTailDataset, optim: OptimConfig, rng: np.random.Generator):
    """Batch indices for every stage-2 step, each drawn from ``rng`` as its
    step starts."""
    for _ in range(stage2_steps(dataset, optim)):
        yield sampler(dataset, optim.batch_size, rng)


def fit_head(method: str, arrays, loss_and_grads, batches, dataset: LongTailDataset,
             optim: OptimConfig) -> None:
    """The stage-2 SGD loop shared by every method.

    Each item of ``batches`` is one step: ``loss_and_grads(item)`` returns
    the batch loss and one gradient per array, and ``arrays`` move in
    place. The learning-rate schedule spans the epochs ``optim`` sets over
    ``dataset``. Raises FloatingPointError naming the method and step when
    the loss, or any array after the last step, is non-finite.
    """
    state = OptimState.for_arrays(arrays, optim, max(stage2_steps(dataset, optim), 1))
    step = -1
    # overflow is detected below and reported once, not warned about per op
    with np.errstate(over="ignore", invalid="ignore"):
        for step, batch in enumerate(batches):
            loss, grads = loss_and_grads(batch)
            if not np.isfinite(loss):
                raise FloatingPointError(f"{method} diverged: non-finite loss at step {step}")
            sgd_update_arrays(arrays, grads, state)
    if not all(np.isfinite(a).all() for a in arrays):
        raise FloatingPointError(f"{method} diverged: non-finite parameters after step {step}")


# ---------------------------------------------------------------------------
# Baseline re-training methods
# ---------------------------------------------------------------------------

def crt(
    theta,
    dataset: LongTailDataset,
    balancing: BalancingSpec,
    optim: OptimConfig,
    rng: np.random.Generator,
    activation: str = "relu",
):
    """Re-train the classifier from a fresh random initialization.

    The frozen extractor is applied once to the whole training split; only
    the classifier weights move.
    """
    balancing.validate()
    feats = features(theta, dataset.features, activation)
    w, b = init_classifier(rng, feats.shape[1], dataset.num_classes)

    def loss_and_grads(idx):
        f = feats[idx]
        loss, dz = balanced_ce_loss_and_grad(
            classifier_logits(w, b, f), dataset.labels[idx], balancing
        )
        return loss, [f.T @ dz, dz.sum(axis=0)]

    batches = sampled_batches(_stage2_sampler(balancing), dataset, optim, rng)
    fit_head("crt", [w, b], loss_and_grads, batches, dataset, optim)
    return w, b


def lws_classifier(w_star: np.ndarray, b_star: np.ndarray, tau: float):
    """Rescale every class weight vector by its norm^(-tau); directions and
    biases are untouched.

    Raises FloatingPointError when norm^(-tau) leaves float32's normal range
    for any class: tau has diverged, and the class's weights would be 0 or
    inf in a checkpoint while the training loss can stay finite.
    """
    norms = np.linalg.norm(w_star, axis=0) + 1e-12
    with np.errstate(over="ignore"):
        power = norms**tau
    f32 = np.finfo(np.float32)  # norm^-tau = 1 / power must be a normal float32
    lost = np.count_nonzero(~((power >= 1.0 / f32.max) & (power <= 1.0 / f32.tiny)))
    if lost:
        raise FloatingPointError(
            f"lws diverged: norm^-tau leaves float32 range for {lost} of {len(norms)} classes "
            f"(tau {tau:.4g})"
        )
    return w_star / power, b_star.copy()


def lws(
    theta,
    phi_star,
    dataset: LongTailDataset,
    balancing: BalancingSpec,
    optim: OptimConfig,
    rng: np.random.Generator,
    activation: str = "relu",
):
    """Learn the single weight-norm exponent tau by SGD (init 0 = identity).

    Returns (w, b, tau) with the scaled classifier materialized.
    """
    balancing.validate()
    w_star, b_star = phi_star
    feats = features(theta, dataset.features, activation)
    log_norms = np.log(np.linalg.norm(w_star, axis=0) + 1e-12)
    base = feats @ w_star  # (N, K); logits(tau) = base * norms^-tau + b
    tau = np.zeros(1)

    def loss_and_grads(idx):
        scaled = base[idx] * np.exp(-tau[0] * log_norms)
        loss, dz = balanced_ce_loss_and_grad(scaled + b_star, dataset.labels[idx], balancing)
        return loss, [np.array([-(dz * scaled * log_norms).sum()])]

    # tau is a bare scalar: weight decay on it would pull toward the
    # unscaled classifier, so it is optimized without the L2 term.
    optim = replace(optim, weight_decay=0.0)
    batches = sampled_batches(_stage2_sampler(balancing), dataset, optim, rng)
    fit_head("lws", [tau], loss_and_grads, batches, dataset, optim)
    w, b = lws_classifier(w_star, b_star, float(tau[0]))
    return w, b, float(tau[0])


@dataclass
class DisAlignParams:
    """Gated affine logit calibration: per-class scale/shift blended with the
    raw logits through an input-dependent sigmoid gate."""

    scale: np.ndarray  # (K,)
    shift: np.ndarray  # (K,)
    gate_w: np.ndarray  # (K,)
    gate_b: float

    @classmethod
    def identity(cls, num_classes: int) -> "DisAlignParams":
        return cls(
            scale=np.ones(num_classes),
            shift=np.zeros(num_classes),
            gate_w=np.zeros(num_classes),
            gate_b=0.0,
        )

    def to_dict(self) -> dict:
        return {
            "scale": self.scale.tolist(),
            "shift": self.shift.tolist(),
            "gate_w": self.gate_w.tolist(),
            "gate_b": float(self.gate_b),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DisAlignParams":
        return cls(
            scale=np.asarray(d["scale"], dtype=np.float64),
            shift=np.asarray(d["shift"], dtype=np.float64),
            gate_w=np.asarray(d["gate_w"], dtype=np.float64),
            gate_b=float(d["gate_b"]),
        )


def _sigmoid(u):
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _gate_and_affine(z: np.ndarray, params: DisAlignParams):
    gate = _sigmoid(z @ params.gate_w + params.gate_b)[..., None]
    return gate, params.scale * z + params.shift


def disalign_logits(z: np.ndarray, params: DisAlignParams) -> np.ndarray:
    """Calibrated logits: sigma(gate) * (scale*z + shift) + (1-sigma) * z.

    z is (..., K); leading axes (batch, ensemble members) broadcast."""
    gate, affine = _gate_and_affine(z, params)
    return gate * affine + (1.0 - gate) * z


def disalign_loss_and_grads(
    params: DisAlignParams, z: np.ndarray, labels: np.ndarray, class_weights: np.ndarray
):
    """Weighted CE over calibrated logits and its gradients wrt the four
    calibration parameter groups (scale, shift, gate_w, gate_b)."""
    gate, affine = _gate_and_affine(z, params)
    zhat = gate * affine + (1.0 - gate) * z
    loss, dzhat = softmax_ce(zhat, labels, class_weights[labels])

    g_scale = (dzhat * gate * z).sum(axis=0)
    g_shift = (dzhat * gate).sum(axis=0)
    dgate = (dzhat * (affine - z)).sum(axis=1)
    g = gate[:, 0]
    du = dgate * g * (1.0 - g)
    g_gate_w = z.T @ du
    g_gate_b = du.sum()
    return loss, (g_scale, g_shift, g_gate_w, g_gate_b)


def disalign(
    theta,
    phi_star,
    dataset: LongTailDataset,
    optim: OptimConfig,
    rng: np.random.Generator,
    activation: str = "relu",
    rho: float = 1.0,
) -> DisAlignParams:
    """Train the calibration module with generalized re-weighting over the
    instance-balanced training stream; extractor and classifier stay frozen.

    Raises FloatingPointError when, after training, the gate is saturated
    on any training example: sigma(|u|) of its gate input u rounds to 1.
    A saturated gate passes no gradient, so the loss can stay finite while
    gate_w and scale run off to huge values.
    """
    w_star, b_star = phi_star
    feats = features(theta, dataset.features, activation)
    z_all = classifier_logits(w_star, b_star, feats)
    params = DisAlignParams.identity(dataset.num_classes)
    class_weights = grw_weights(dataset.frequencies, rho)
    gate_b = np.zeros(1)

    def loss_and_grads(idx):
        params.gate_b = float(gate_b[0])
        loss, (gs, gh, gw, gb) = disalign_loss_and_grads(
            params, z_all[idx], dataset.labels[idx], class_weights
        )
        return loss, [gs, gh, gw, np.array([gb])]

    # identity blend must stay reachable: no L2 pull on calibration params
    optim = replace(optim, weight_decay=0.0)
    batches = sampled_batches(instance_balanced_indices, dataset, optim, rng)
    fit_head("disalign", [params.scale, params.shift, params.gate_w, gate_b], loss_and_grads,
             batches, dataset, optim)
    params.gate_b = float(gate_b[0])
    saturated = np.count_nonzero(_sigmoid(np.abs(z_all @ params.gate_w + params.gate_b)) == 1.0)
    if saturated:
        raise FloatingPointError(
            f"disalign diverged: gate saturated on {saturated} of {len(z_all)} training examples"
        )
    return params


# ---------------------------------------------------------------------------
# Stochastic representations
# ---------------------------------------------------------------------------

def stochastic_representations(
    x: np.ndarray,
    source: str,
    model,
    config: RetrainConfig,
    rng: np.random.Generator,
    activation: str = "relu",
) -> np.ndarray:
    """M representations per input, shape (M, B, L).

    source "posterior": `model` is a frozen SwagPosterior; each draw runs the
    extractor under a fresh parameter sample. source "input_jitter": `model`
    is the extractor layer list; each draw perturbs the inputs with Gaussian
    noise of std jitter_std.
    """
    if source == "posterior":
        return posterior_features(model, x, config.srepr_m, rng, activation)
    if source == "input_jitter":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.stack([
            features(model, jitter_inputs(x, config.jitter_std, rng), activation)
            for _ in range(config.srepr_m)
        ])
    raise ValueError(f"unknown stochastic source {source!r}")


def jitter_inputs(x: np.ndarray, std: float, rng: np.random.Generator) -> np.ndarray:
    """x + std * eps with standard normal eps."""
    return x + std * rng.standard_normal(x.shape)


# ---------------------------------------------------------------------------
# Loss pieces
# ---------------------------------------------------------------------------

def mean_ce_loss_and_grad(
    w: np.ndarray,
    b: np.ndarray,
    reps: np.ndarray,
    labels: np.ndarray,
    balancing: BalancingSpec,
    logits: np.ndarray | None = None,
):
    """Average cross-entropy over the M stochastic representations.

    GRW multiplies each example's averaged loss by its class weight; LA
    adjusts the logits inside every per-sample term. Returns the batch-mean
    loss and its gradients wrt the classifier (w, b).

    The (M, B, K) logits (``classifier_logits(w, b, reps)``, computed here
    unless the caller passes them), their CE and the per-member gradients
    are computed in one pass, one gemm per member; the member terms are then
    added in member order, so the sums round as a loop over members would.
    """
    if logits is None:
        logits = classifier_logits(w, b, reps)
    losses, dz = balanced_ce_loss_and_grad(logits, labels, balancing)
    gw_m = np.matmul(reps.transpose(0, 2, 1), dz)
    gb_m = dz.sum(axis=1)
    loss = 0.0
    gw = np.zeros_like(w)
    gb = np.zeros_like(b)
    for j in range(len(reps)):
        loss += losses[j]
        gw += gw_m[j]
        gb += gb_m[j]
    m = len(reps)
    return loss / m, gw / m, gb / m


def teacher_probs(logits: np.ndarray, tau_kd: float):
    """Temperature-scaled predictions of the M virtual teachers, given their
    (M, B, K) logits, and their mean, shapes (M, B, K) and (B, K). Teachers
    are constants: no gradient path exists through the returned arrays."""
    if tau_kd <= 0.0:
        raise ValueError("tau_kd must be positive")
    probs = softmax(logits / tau_kd)
    return probs, probs.mean(axis=0)


def estimate_beta(probs: np.ndarray, beta_floor: float = 1e-6) -> np.ndarray:
    """Fit a shared Dirichlet to M categorical vectors by the closed-form
    approximate maximum-likelihood rule, then apply the +1 shift.

    The concentration is the mean prediction times a scalar precision
    (K-1)/2 divided by a nonnegative teacher-disagreement statistic, which
    is floored so agreeing teachers yield a large-but-finite precision.
    Accepts (M, K) or (M, B, K); returns (K,) or (B, K).
    """
    probs = np.asarray(probs, dtype=np.float64)
    squeeze = probs.ndim == 2
    if squeeze:
        probs = probs[:, None, :]
    m, _, k = probs.shape
    if m < 2:
        raise ValueError("need at least 2 teacher predictions")
    clipped = np.maximum(probs, PROB_FLOOR)
    p_bar = probs.mean(axis=0)  # (B, K)
    p_bar_safe = np.maximum(p_bar, PROB_FLOOR)
    mean_log = np.log(clipped).mean(axis=0)  # (B, K)
    disagreement = (p_bar * (np.log(p_bar_safe) - mean_log)).sum(axis=1)  # (B,)
    denom = np.maximum(disagreement, beta_floor)
    beta = p_bar * ((k - 1) / 2.0 / denom)[:, None] + 1.0
    return beta[0] if squeeze else beta


def student_alpha_from_logits(z: np.ndarray, tau_kd: float):
    """Student concentrations exp(z / tau) + 1 with overflow-clamped logits.

    Returns (alpha, d alpha / d z); the derivative is zero where the clamp
    is active.
    """
    if tau_kd <= 0.0:
        raise ValueError("tau_kd must be positive")
    bound = LOGIT_CLAMP_SCALE * tau_kd
    z_c = np.clip(z, -bound, bound)
    alpha_pre = np.exp(z_c / tau_kd)
    dalpha_dz = np.where(np.abs(z) < bound, alpha_pre / tau_kd, 0.0)
    return alpha_pre + 1.0, dalpha_dz


def kd_loss_and_alpha_grad(alpha: np.ndarray, beta: np.ndarray, p_bar: np.ndarray):
    """Distillation loss and its gradient wrt the student concentrations.

    Per example: cross-entropy of the mean teacher against the student's
    expected log-probabilities, computed analytically as
    -sum_k pbar_k (psi(alpha_k) - psi(alpha_0)), plus the KL of the student
    Dirichlet to the flat Dirichlet scaled by the inverse teacher precision.
    beta and p_bar are treated as constants. Returns the batch mean and
    d(mean)/d(alpha) of shape (B, K).
    """
    a = np.atleast_2d(np.asarray(alpha, dtype=np.float64))
    bb = np.atleast_2d(np.asarray(beta, dtype=np.float64))
    t = np.atleast_2d(np.asarray(p_bar, dtype=np.float64))
    if np.any(a <= 0.0) or np.any(bb <= 0.0):
        raise ValueError("concentration parameters must be positive")
    n, k = a.shape
    a0 = a.sum(axis=1)
    b0 = bb.sum(axis=1)

    psi_a = digamma(a)
    psi_a0 = digamma(a0)
    dpsi = psi_a - psi_a0[:, None]
    term1 = -(t * dpsi).sum(axis=1)
    # the KL to the flat Dirichlet(1, ..., 1), from the digammas above; gammaln(1) is 0
    kl_flat = gammaln(a0) - gammaln(a).sum(axis=1) - gammaln(k) + ((a - 1.0) * dpsi).sum(axis=1)
    loss = (term1 + kl_flat / b0).mean()

    # the trigamma: scipy's polygamma(1, x) is 1.0 * zeta(2, x) plus a
    # digamma it discards
    tri_a = zeta(2, a)
    tri_a0 = zeta(2, a0)
    t_sum = t.sum(axis=1)
    g_term1 = -t * tri_a + (t_sum * tri_a0)[:, None]
    g_kl = (a - 1.0) * tri_a - ((a0 - k) * tri_a0)[:, None]
    grad = (g_term1 + g_kl / b0[:, None]) / n
    return float(loss), grad


def srepr_batch_loss_and_grad(
    w: np.ndarray,
    b: np.ndarray,
    reps: np.ndarray,
    f_swa: np.ndarray,
    labels: np.ndarray,
    balancing: BalancingSpec,
    config: RetrainConfig,
):
    """Combined stage-2 loss on one batch and its classifier gradients: the
    mean CE and the distillation term, weighted equally.

    The rebalancing spec touches only the cross-entropy term; the
    distillation term always distills the unweighted teacher ensemble.
    """
    logits = classifier_logits(w, b, reps)  # the M teachers' logits, shared by both terms
    ce, gw_ce, gb_ce = mean_ce_loss_and_grad(w, b, reps, labels, balancing, logits)

    probs, p_bar = teacher_probs(logits, config.kd_temp)
    beta = estimate_beta(probs, config.beta_floor)
    z = classifier_logits(w, b, f_swa)
    alpha, dalpha_dz = student_alpha_from_logits(z, config.kd_temp)
    kd, dkd_dalpha = kd_loss_and_alpha_grad(alpha, beta, p_bar)
    dkd_dz = dkd_dalpha * dalpha_dz
    gw_kd = f_swa.T @ dkd_dz
    gb_kd = dkd_dz.sum(axis=0)

    loss = 0.5 * ce + 0.5 * kd
    gw = 0.5 * gw_ce + 0.5 * gw_kd
    gb = 0.5 * gb_ce + 0.5 * gb_kd
    return loss, gw, gb, {"ce": ce, "kd": kd}


def srepr_batches(
    theta_swa,
    posterior: SwagPosterior | None,
    dataset: LongTailDataset,
    balancing: BalancingSpec,
    config: RetrainConfig,
    optim: OptimConfig,
    rng: np.random.Generator,
    activation: str = "relu",
):
    """srepr's stage-2 stream: ``(idx, reps)`` for every step, reps the
    (M, B, L) stochastic representations of the batch ``idx``.

    Source "posterior": at the start of each epoch, before that epoch's
    first batch indices, M extractor draws fill one (M, theta_dim) block,
    and every step of the epoch runs its batch through that block as one
    stacked forward. Source "input_jitter": each step draws its indices,
    then M x B x D normals for its rows. Everything comes from ``rng`` in
    that order. ``reps`` is one buffer, rewritten every step.
    """
    m, batch = config.srepr_m, optim.batch_size
    sampler = _stage2_sampler(balancing)
    per_epoch = steps_per_epoch(dataset.num_examples, batch)
    by_epoch = config.stochastic_source == "posterior"
    if by_epoch:
        block = np.empty((m, posterior.theta_dim))
        layers = theta_layers(posterior, block)
    else:
        block = np.empty((m, batch, dataset.input_dim))
        layers = theta_swa
    # every step's stacked forward writes into the same per-layer buffers
    layer_out = [np.empty((m, batch, wt.shape[-1])) for wt, _ in theta_swa]
    for _ in range(optim.epochs):
        if by_epoch:
            fill_theta(posterior, rng, block)
        for _ in range(per_epoch):
            idx = sampler(dataset, batch, rng)
            x = dataset.features[idx]
            if not by_epoch:
                rng.standard_normal(out=block)
                block *= config.jitter_std
                block += x
                x = block
            yield idx, features(layers, x, activation, out=layer_out)


def srepr_retrain(
    theta_swa,
    posterior: SwagPosterior | None,
    phi_init,
    dataset: LongTailDataset,
    balancing: BalancingSpec,
    config: RetrainConfig,
    optim: OptimConfig,
    rng: np.random.Generator,
    activation: str = "relu",
):
    """Stochastic-representation re-training of the classifier.

    Each stage-2 epoch draws M fresh extractor samples (input jitter is
    drawn per step instead), see `srepr_batches`; every batch re-fits the
    teacher Dirichlet from its M representations under the current
    classifier, and only (w, b) move.
    """
    config.validate()
    balancing.validate()
    if config.stochastic_source == "posterior" and posterior is None:
        raise ValueError("posterior required for stochastic source 'posterior'")
    w = phi_init[0].copy()
    b = phi_init[1].copy()
    f_swa_all = features(theta_swa, dataset.features, activation)

    def loss_and_grads(batch_and_reps):
        idx, reps = batch_and_reps
        loss, gw, gb, _ = srepr_batch_loss_and_grad(
            w, b, reps, f_swa_all[idx], dataset.labels[idx], balancing, config
        )
        return loss, [gw, gb]

    batches = srepr_batches(theta_swa, posterior, dataset, balancing, config, optim, rng,
                            activation)
    fit_head("srepr", [w, b], loss_and_grads, batches, dataset, optim)
    return w, b
