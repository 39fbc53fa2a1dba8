"""Stage-2 classifier learning over a frozen feature extractor.

Baselines: re-training from scratch on class-balanced samples (crt),
learnable weight scaling of the pre-trained classifier (lws), and gated
affine logit calibration trained with generalized re-weighting (disalign).

The stochastic-representation method (srepr) draws M feature-extractor
samples per stage-2 epoch, runs the epoch's distinct training rows through
each of them once (input jitter instead draws M noisy copies per batch),
treats their temperature-scaled predictions on each batch as a virtual
teacher ensemble, fits a per-example Dirichlet to the ensemble, and trains
the classifier with an equally weighted sum of the mean cross-entropy over
stochastic representations and a Dirichlet distillation loss. Gradients
flow only through the student concentrations; the teacher side is
constant.

srepr's step keeps the class axis outermost in memory. It forms the M
teachers' logits as one gemm into a (K, M, B) array and the student's
into a (K, B) array, and hands the loss pieces their (M, B, K) and (B, K)
transposed views: the shapes every piece takes, in class-major memory.
K is short (10 at desk scale), so with K innermost each max, sum and
(..., 1) broadcast over K would run M x B numpy inner loops of length K;
class-major, each is K sweeps over contiguous rows, which at desk shapes
more than halves the cost of a softmax. The pieces accept either layout.
Sums over K and B then add in another order, so their float64 results
differ in the last bits between the two layouts.

The distillation loss needs digamma, trigamma and
kappa(x) = log Gamma(x) - (x - 1) digamma(x) + x, which
``_gamma_functions`` evaluates in numpy with log-gamma: the recurrences
shift x up by 6, then the Stirling series in 1 / (x + 6)^2 finishes
(Bernardo's AS 103 method for digamma, carried to all four). For x in
[1e-6, 1e15], log-gamma and kappa are within 2e-14 and 1e-14, and digamma
within 4e-15, of the exact value times max(1, |value|), and trigamma
within 4e-15 relative. That range holds every concentration the loss sees
with up to 93 classes (1 <= alpha <= e^30 + 1 per class, alpha_0 their
sum). Larger x stays accurate until the product x (x + 1) ... (x + 5)
overflows, near 1e51, where log-gamma and kappa read -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
    cosine_lr,
    features,
    init_classifier,
    sgd_update_arrays,
    softmax,
    softmax_ce,
)
from .swag import (
    SwagPosterior,
    extractor_layers,
    member_features,
    sample_theta,
)
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
    place. Step k runs at ``cosine_lr(k, total, optim.lr)``, a cosine
    schedule over the ``total`` steps of the epochs ``optim`` sets over
    ``dataset``. Raises FloatingPointError naming the method and step when
    the loss, or any array after the last step, is non-finite.
    """
    state = OptimState.for_arrays(arrays, optim)
    total = stage2_steps(dataset, optim)
    step = -1
    # overflow is detected below and reported once, not warned about per op
    with np.errstate(over="ignore", invalid="ignore"):
        for step, batch in enumerate(batches):
            loss, grads = loss_and_grads(batch)
            if not np.isfinite(loss):
                raise FloatingPointError(f"{method} diverged: non-finite loss at step {step}")
            sgd_update_arrays(arrays, grads, state, cosine_lr(step, total, optim.lr))
    if not all(np.isfinite(a).all() for a in arrays):
        raise FloatingPointError(f"{method} diverged: non-finite parameters after step {step}")


# ---------------------------------------------------------------------------
# Baseline re-training methods
# ---------------------------------------------------------------------------

def crt(feats: np.ndarray, dataset: LongTailDataset, balancing: BalancingSpec,
        optim: OptimConfig, rng: np.random.Generator):
    """Re-train the classifier from a fresh random initialization on
    ``feats``, the frozen extractor's (N, L) representations of the
    training split; only the classifier weights move."""
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


def lws(feats: np.ndarray, phi_star, dataset: LongTailDataset, balancing: BalancingSpec,
        optim: OptimConfig, rng: np.random.Generator):
    """Learn the single weight-norm exponent tau of the classifier
    ``phi_star`` by SGD on ``feats`` (see `crt`), init 0 = identity.

    Returns (w, b, tau) with the scaled classifier materialized.
    """
    w_star, b_star = phi_star
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
        """The JSON form a model's metadata holds; `checkpoint.Checkpoint.calibration`
        reads it back."""
        return {
            "scale": self.scale.tolist(),
            "shift": self.shift.tolist(),
            "gate_w": self.gate_w.tolist(),
            "gate_b": float(self.gate_b),
        }


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


def disalign(feats: np.ndarray, phi_star, dataset: LongTailDataset, optim: OptimConfig,
             rng: np.random.Generator, rho: float = 1.0) -> DisAlignParams:
    """Train the calibration module of the classifier ``phi_star`` with
    generalized re-weighting over the instance-balanced stream of ``feats``
    (see `crt`); the classifier stays frozen.

    Raises FloatingPointError when, after training, the gate is saturated
    on any training example: sigma(|u|) of its gate input u rounds to 1.
    A saturated gate passes no gradient, so the loss can stay finite while
    gate_w and scale run off to huge values.
    """
    w_star, b_star = phi_star
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
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if source == "posterior":
        out, draw = np.empty((config.srepr_m, len(x), model.repr_dim)), np.empty(model.theta_dim)
        members = (sample_theta(model, rng, draw) for _ in range(config.srepr_m))
        list(member_features(members, x, out, activation))  # each member fills its slice
        return out
    if source == "input_jitter":
        noisy = np.empty((config.srepr_m, *x.shape))
        return jittered_features(model, x, config.jitter_std, rng, noisy, activation)
    raise ValueError(f"unknown stochastic source {source!r}")


def jittered_features(layers, x: np.ndarray, std: float, rng: np.random.Generator,
                      noisy: np.ndarray, activation: str = "relu", out=None) -> np.ndarray:
    """``features(layers, x + std * eps)`` for M copies of ``x`` at once:
    the (M, B, D) standard normals eps are drawn into ``noisy`` in one
    C-order stream, then run as one stacked forward (into ``out``, see
    `features`)."""
    rng.standard_normal(out=noisy)
    noisy *= std
    noisy += x
    return features(layers, noisy, activation, out=out)


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
    are computed in one pass, one gemm per member. The member terms are
    then added in member order: the gradients by sums over their outermost
    (member) axis, the losses by a running sum, since numpy sums a 1-D
    array pairwise. So on C-order logits every result has the bits of a
    loop over members; on srepr's class-major logits (see the module
    docstring) the sums over B and K round differently.
    """
    if logits is None:
        logits = classifier_logits(w, b, reps)
    losses, dz = balanced_ce_loss_and_grad(logits, labels, balancing)
    m = len(reps)
    loss = np.add.accumulate(losses)[-1]
    gw = np.matmul(reps.transpose(0, 2, 1), dz).sum(axis=0)
    gb = dz.sum(axis=1).sum(axis=0)
    return loss / m, gw / m, gb / m


def teacher_probs(logits: np.ndarray, tau_kd: float):
    """Temperature-scaled predictions of the M virtual teachers, given their
    (M, B, K) logits, and their mean, shapes (M, B, K) and (B, K). Teachers
    are constants: no gradient path exists through the returned arrays."""
    if tau_kd <= 0.0:
        raise ValueError("tau_kd must be positive")
    probs = softmax(logits / tau_kd)
    return probs, probs.mean(axis=0)


def estimate_beta(probs: np.ndarray, beta_floor: float = 1e-6,
                  p_bar: np.ndarray | None = None) -> np.ndarray:
    """Fit a shared Dirichlet to M categorical vectors by the closed-form
    approximate maximum-likelihood rule, then apply the +1 shift.

    The concentration is the mean prediction times a scalar precision
    (K-1)/2 divided by a nonnegative teacher-disagreement statistic, which
    is floored so agreeing teachers yield a large-but-finite precision.
    Accepts (M, K) or (M, B, K); returns (K,) or (B, K). ``p_bar``, the
    mean of ``probs`` over M, is computed here unless the caller passes it.
    """
    probs = np.asarray(probs, dtype=np.float64)
    squeeze = probs.ndim == 2
    if squeeze:
        probs = probs[:, None, :]
    m, _, k = probs.shape
    if m < 2:
        raise ValueError("need at least 2 teacher predictions")
    clipped = np.maximum(probs, PROB_FLOOR)
    p_bar = probs.mean(axis=0) if p_bar is None else np.reshape(p_bar, probs.shape[1:])  # (B, K)
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


# _gamma_functions shifts x up by 6 and finishes with Stirling series in
# powers of 1 / z^2, n = 1..10, whose coefficients come from the Bernoulli
# numbers B_2n: B_2n / (2n (2n - 1)) for log-gamma (row 0), B_2n / 2n for
# digamma (row 1) and B_2n for trigamma (row 2)
_GAMMA_SHIFT = 6
_STIRLING_SERIES = np.array([
    (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
     1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400),
    (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760,
     1 / 12, -3617 / 8160, 43867 / 14364, -174611 / 6600),
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730,
     7 / 6, -3617 / 510, 43867 / 798, -174611 / 330),
])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SHIFTS = np.arange(float(_GAMMA_SHIFT))
_HORNER = _STIRLING_SERIES[:, ::-1].T.copy()  # Horner's rule adds row i at step i


def _gamma_functions(x):
    """(log Gamma(x), digamma(x), trigamma(x), kappa(x)) of a float64 array
    x > 0, where kappa(x) = log Gamma(x) - (x - 1) digamma(x) + x.

    The recurrences Gamma(x + 1) = x Gamma(x), psi(x + 1) = psi(x) + 1/x and
    psi_1(x + 1) = psi_1(x) - 1/x^2 carry x up to z = x + 6, where ten terms
    of the Stirling series in 1/z^2 finish each function. kappa is summed
    from the same pieces with its x log x and x terms cancelled by hand, so
    it keeps the precision of a value of size log x. The distillation loss
    reads digamma, trigamma and kappa; log Gamma, whose series and product
    terms kappa shares, is the one of them scipy can check over the whole
    domain. Domain and accuracy are in the module docstring; a NaN gives NaN.
    """
    y = np.add.outer(_SHIFTS, x)  # x, x + 1, ..., x + 5
    inv = 1.0 / y
    z = x + _GAMMA_SHIFT
    w = 1.0 / z
    w2 = w * w
    # the three series by Horner's rule, one row each; summing coefficient
    # times power over a (3, 10, ...) product makes fewer calls, but on the
    # wide profile that temporary passes malloc's 128 KB mmap threshold and
    # its page faults cost more than the calls it saves
    coefs = _HORNER.reshape(_HORNER.shape + (1,) * x.ndim)
    series = coefs[0] * w2
    for c in coefs[1:-1]:
        series += c
        series *= w2
    series += coefs[-1]
    log_z = np.log(z)
    log_prod = np.log(y.prod(axis=0))
    w_s0 = w * series[0]
    # (z - 1/2) log z - z + log(2 pi) / 2 = (z - 1/2)(log z - 1) + log(2 pi) / 2 - 1/2
    lgamma = (z - 0.5) * (log_z - 1.0) + (_HALF_LOG_2PI - 0.5) + w_s0 - log_prod
    half_w = 0.5 * w
    w2_s1 = w2 * series[1]
    sum_inv = inv.sum(axis=0)
    digamma = log_z - half_w - w2_s1 - sum_inv
    trigamma = w + 0.5 * w2 + w * w2 * series[2] + (inv * inv).sum(axis=0)
    # kappa = lgamma - (x - 1)(log z - d), with d = half_w + w2_s1 + sum_inv
    # = (shift + 1/2) log z - shift + log(2 pi) / 2 + w_s0 - log_prod + (x - 1) d
    kappa = ((_GAMMA_SHIFT + 0.5) * log_z - log_prod + (x - 1.0) * (half_w + w2_s1 + sum_inv)
             + (w_s0 + (_HALF_LOG_2PI - _GAMMA_SHIFT)))
    return lgamma, digamma, trigamma, kappa


def kd_loss_and_alpha_grad(alpha: np.ndarray, beta: np.ndarray, p_bar: np.ndarray):
    """Distillation loss and its gradient wrt the student concentrations.

    Per example: cross-entropy of the mean teacher against the student's
    expected log-probabilities, computed analytically as
    -sum_k pbar_k (psi(alpha_k) - psi(alpha_0)), plus the KL of the student
    Dirichlet to the flat Dirichlet scaled by the inverse teacher precision.
    beta and p_bar are treated as constants. Returns the batch mean and
    d(mean)/d(alpha) of shape (B, K).

    The digammas, trigammas and kappas of alpha and alpha_0 come from one
    ``_gamma_functions`` call on the class-major (K + 1, B) array
    [alpha | alpha_0]. With kappa(x) = log Gamma(x) - (x - 1) psi(x) + x,
    the KL is kappa(alpha_0) - sum_k kappa(alpha_k) + (K - 1) psi(alpha_0)
    - log Gamma(K): the x terms cancel since sum_k alpha_k = alpha_0, and no
    term is of the size alpha log alpha, so the KL keeps its precision for
    confident students. The inputs are read as class-major arrays (a copy
    unless they are views of class-major memory), so every sum over K adds
    the classes in order, and C-order and class-major inputs give the same
    bits. A NaN concentration gives a NaN loss.
    """
    a, bb, t = (np.ascontiguousarray(np.atleast_2d(np.asarray(v, dtype=np.float64)).T)
                for v in (alpha, beta, p_bar))  # (K, B) each
    if (a <= 0.0).any() or (bb <= 0.0).any():
        raise ValueError("concentration parameters must be positive")
    k, n = a.shape
    a0 = a.sum(axis=0)
    b0 = bb.sum(axis=0)

    _, psi, tri, kappa = _gamma_functions(np.concatenate([a, a0[None]]))
    term1 = -(t * (psi[:k] - psi[k])).sum(axis=0)
    # the KL to the flat Dirichlet(1, ..., 1)
    kl_flat = kappa[k] - kappa[:k].sum(axis=0) + (k - 1) * psi[k] - math.lgamma(k)
    loss = (term1 + kl_flat / b0).sum() / n

    tri_a, tri_a0 = tri[:k], tri[k]
    g_term1 = -t * tri_a + t.sum(axis=0) * tri_a0
    g_kl = (a - 1.0) * tri_a - (a0 - k) * tri_a0
    grad = (g_term1 + g_kl / b0) / n
    return float(loss), grad.T


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
    # the M teachers' logits, shared by both terms, and the student's, each
    # an (..., K) view of class-major memory (see the module docstring)
    m, n, l = reps.shape
    logits = (w.T @ reps.reshape(m * n, l).T).reshape(-1, m, n)
    logits += b[:, None, None]
    logits = logits.transpose(1, 2, 0)
    z = (w.T @ f_swa.T + b[:, None]).T
    ce, gw_ce, gb_ce = mean_ce_loss_and_grad(w, b, reps, labels, balancing, logits)

    probs, p_bar = teacher_probs(logits, config.kd_temp)
    beta = estimate_beta(probs, config.beta_floor, p_bar)
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

    Source "posterior": at the start of each epoch, M `sample_theta` draws,
    each into one reused float64 row that is then rounded into its row of
    a float32 (M, theta_dim) block, then every step's batch indices of the
    epoch are drawn. `member_features` runs the epoch's U distinct rows,
    from a float32 copy of the training features, through each float32
    member in turn into one float32 (M, U, L) table. Each step takes its
    rows from the table and widens them once into a float64 ``reps``, so
    the head stays float64 and a row sampled by several steps is forwarded
    once per member. A member's sgemm gives a row the same bits in any
    product of two or more rows, so a lone distinct row is forwarded
    twice. Source "input_jitter": each step draws its indices, then
    M x B x D normals for its rows, and forwards in float64. Everything
    comes from ``rng`` in that order, never ahead of the epoch that uses
    it. ``reps`` is one buffer, rewritten every step.
    """
    m, batch = config.srepr_m, optim.batch_size
    sampler = _stage2_sampler(balancing)
    per_epoch = steps_per_epoch(dataset.num_examples, batch)
    if config.stochastic_source != "posterior":
        noisy = np.empty((m, batch, dataset.input_dim))
        # every step's stacked forward writes into the same per-layer buffers
        layer_out = [np.empty((m, batch, wt.shape[-1])) for wt, _ in theta_swa]
        for _ in range(optim.epochs * per_epoch):
            idx = sampler(dataset, batch, rng)
            yield idx, jittered_features(theta_swa, dataset.features[idx], config.jitter_std,
                                         rng, noisy, activation, out=layer_out)
        return
    draw = np.empty(posterior.theta_dim)
    block32 = np.empty((m, posterior.theta_dim), dtype=np.float32)
    members = [extractor_layers(posterior, row) for row in block32]
    x32 = dataset.features.astype(np.float32)
    reps32 = np.empty((m, batch, posterior.repr_dim), dtype=np.float32)
    reps = np.empty(reps32.shape)
    for _ in range(optim.epochs):
        for row in block32:
            sample_theta(posterior, rng, draw)
            np.copyto(row, draw)
        epoch_idx = [sampler(dataset, batch, rng) for _ in range(per_epoch)]
        rows, inverse = np.unique(epoch_idx, return_inverse=True)
        if len(rows) == 1:
            rows = np.repeat(rows, 2)  # a one-row product runs as gemv, which rounds unlike gemm
        inverse = inverse.reshape(per_epoch, batch)
        table = None  # the last epoch's table goes before the next is made
        table = np.empty((m, len(rows), posterior.repr_dim), np.float32)
        list(member_features(members, x32[rows], table, activation))
        for step, idx in enumerate(epoch_idx):
            # indices are in range; "clip" spares take the copy "raise" makes
            np.take(table, inverse[step], axis=1, out=reps32, mode="clip")
            np.copyto(reps, reps32)
            yield idx, reps


def srepr_retrain(
    feats: np.ndarray,
    theta_swa,
    posterior: SwagPosterior | None,
    phi_init,
    dataset: LongTailDataset,
    balancing: BalancingSpec,
    config: RetrainConfig,
    optim: OptimConfig,
    rng: np.random.Generator,
    activation: str,
):
    """Stochastic-representation re-training of a copy of the classifier
    ``phi_init``, whose student reads ``feats``, the (N, L) representations
    of the training split under the SWA extractor ``theta_swa``.

    Each stage-2 epoch draws M fresh extractor samples and looks its
    batches' representations up in a table of the epoch's distinct rows
    under each sample (input jitter perturbs ``theta_swa``'s inputs per
    step instead), all forwarded with ``activation``, see `srepr_batches`;
    every batch re-fits the teacher Dirichlet from its M representations
    under the current classifier, and only (w, b) move.
    """
    config.validate()
    if config.stochastic_source == "posterior" and posterior is None:
        raise ValueError("posterior required for stochastic source 'posterior'")
    w = phi_init[0].copy()
    b = phi_init[1].copy()

    def loss_and_grads(batch_and_reps):
        idx, reps = batch_and_reps
        loss, gw, gb, _ = srepr_batch_loss_and_grad(
            w, b, reps, feats[idx], dataset.labels[idx], balancing, config
        )
        return loss, [gw, gb]

    batches = srepr_batches(theta_swa, posterior, dataset, balancing, config, optim, rng,
                            activation)
    fit_head("srepr", [w, b], loss_and_grads, batches, dataset, optim)
    return w, b
