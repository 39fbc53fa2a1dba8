"""Stage-2 classifier learning over a frozen feature extractor.

Baselines: re-training from scratch on class-balanced samples (crt),
learnable weight scaling of the pre-trained classifier (lws), and gated
affine logit calibration trained with generalized re-weighting (disalign).

The stochastic-representation method (srepr) draws M feature-extractor
samples per batch, treats their temperature-scaled predictions as a virtual
teacher ensemble, fits a per-example Dirichlet to the ensemble, and trains
the classifier with an equally weighted sum of the mean cross-entropy over
stochastic representations and a Dirichlet distillation loss. Gradients flow
only through the student concentrations; the teacher side is constant.
"""

from __future__ import annotations

import mmap
import queue
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import digamma, gammaln, polygamma

from .balancing import (
    BalancingSpec,
    balanced_ce_loss_and_grad,
    example_weights,
    grw_weights,
    logit_adjust,
)
from .data import (
    LongTailDataset,
    class_balanced_indices,
    instance_balanced_indices,
    steps_per_epoch,
)
from .netcore import (
    PROB_FLOOR,
    OptimState,
    SgdHyper,
    classifier_logits,
    features,
    init_classifier,
    sgd_update_arrays,
    softmax,
    softmax_ce,
)
from .swag import SwagPosterior, fill_theta, posterior_features, theta_layers

LOGIT_CLAMP_SCALE = 30.0  # raw student logits clipped at +/- 30 * temperature

STOCHASTIC_SOURCES = ("posterior", "input_jitter")


@dataclass(frozen=True)
class SreprConfig:
    """Stochastic-representation re-training knobs."""

    num_samples: int = 10
    kd_temperature: float = 20.0
    ce_weight: float = 0.5
    kd_weight: float = 0.5
    beta_floor: float = 1e-6
    stochastic_source: str = "posterior"
    jitter_std: float = 0.1

    def validate(self) -> None:
        if self.num_samples < 2:
            raise ValueError("num_samples must be >= 2 to fit a Dirichlet")
        if self.kd_temperature <= 0.0:
            raise ValueError("kd_temperature must be positive")
        if self.beta_floor <= 0.0:
            raise ValueError("beta_floor must be positive")
        if self.stochastic_source not in STOCHASTIC_SOURCES:
            raise ValueError(f"stochastic_source must be one of {STOCHASTIC_SOURCES}")
        if self.jitter_std < 0.0:
            raise ValueError("jitter_std must be >= 0")


def _stage2_sampler(spec: BalancingSpec):
    return class_balanced_indices if spec.uses_class_balanced_sampler else instance_balanced_indices


def stage2_steps(dataset: LongTailDataset, optim: SgdHyper) -> int:
    return steps_per_epoch(dataset.num_examples, optim.batch_size) * optim.epochs


def sampled_batches(sampler, dataset: LongTailDataset, optim: SgdHyper, rng: np.random.Generator):
    """Batch indices for every stage-2 step, each drawn from ``rng`` as its
    step starts."""
    for _ in range(stage2_steps(dataset, optim)):
        yield sampler(dataset, optim.batch_size, rng)


def fit_head(method: str, arrays, loss_and_grads, batches, dataset: LongTailDataset,
             optim: SgdHyper) -> None:
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
    optim: SgdHyper,
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
    biases are untouched."""
    norms = np.linalg.norm(w_star, axis=0) + 1e-12
    return w_star / norms**tau, b_star.copy()


def lws(
    theta,
    phi_star,
    dataset: LongTailDataset,
    balancing: BalancingSpec,
    optim: SgdHyper,
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
    optim: SgdHyper,
    rng: np.random.Generator,
    activation: str = "relu",
    rho: float = 1.0,
) -> DisAlignParams:
    """Train the calibration module with generalized re-weighting over the
    instance-balanced training stream; extractor and classifier stay frozen."""
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
    return params


# ---------------------------------------------------------------------------
# Stochastic representations
# ---------------------------------------------------------------------------

def stochastic_representations(
    x: np.ndarray,
    source: str,
    model,
    config: SreprConfig,
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
        return posterior_features(model, x, config.num_samples, rng, activation)
    if source == "input_jitter":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.stack([
            features(model, jitter_inputs(x, config.jitter_std, rng), activation)
            for _ in range(config.num_samples)
        ])
    raise ValueError(f"unknown stochastic source {source!r}")


def jitter_inputs(x: np.ndarray, std: float, rng: np.random.Generator,
                  out: np.ndarray | None = None) -> np.ndarray:
    """x + std * eps with standard normal eps, filled into ``out`` (allocated
    when omitted) in place; same stream and bits as a fresh draw."""
    if out is None:
        out = np.empty(x.shape)
    rng.standard_normal(out=out)
    out *= std
    out += x
    return out


# A hand-off costs the consumer a GIL round trip, so members are drawn and
# handed over in blocks of at least this many numbers.
HANDOFF_NUMBERS = 1 << 15

# srepr draws on the producer thread only when one step draws at least this
# many numbers. Below it the overlap saves little, and the thread's hand-offs
# make the time hang on how the host schedules two threads: on a 2-vCPU VM a
# desk-default srepr retrain (75,840 numbers a step) took 0.39-1.03 s threaded
# from run to run and 0.50-0.71 s inline, while at 330,880 numbers a step
# (hidden 128,128) the thread cut 2.0 s to 1.2 s.
DRAW_AHEAD_NUMBERS = 1 << 18


def member_ring(members: int, member_shape: tuple) -> np.ndarray:
    """DrawAhead's ring: one step's members as float64 blocks, shape
    (blocks, per_block, *member_shape).

    It lives in its own anonymous memory map rather than on the malloc
    heap, so its pages go back to the system when the last view of it is
    dropped and later allocations do not land around a freed hole.
    """
    size = int(np.prod(member_shape))
    per_block = min(members, -(-HANDOFF_NUMBERS // size))
    shape = (-(-members // per_block), per_block, *member_shape)
    pages = mmap.mmap(-1, 8 * int(np.prod(shape)))
    return np.frombuffer(pages, dtype=np.float64).reshape(shape)


class DrawAhead:
    """srepr's random draws, made one step ahead on a producer thread, or
    inline as the loop asks for them when ``ahead`` is false.

    While it runs, the producer is the only user of the RNG stream and
    replays the inline loop's sequence in order: a step's batch indices
    (``next_indices()``), then its M members (``len(out)``), drawn a block
    at a time by ``fill(rows, x)`` into the leading rows of a block of the
    caller-allocated ``ring`` (``member_ring``); ``x`` is the batch of
    ``inputs``. A block is handed back once the consumer has run
    ``represent(k, i, x)`` on each member it holds (row i of block k), so
    the producer is at most one step ahead and allocates nothing large.
    Iterating yields ``(idx, reps)`` per step, with reps the (M, B, L)
    ``out`` buffer, rewritten every step. An exception raised in the
    producer is re-raised by the iterator.

    Inline, the same sequence is drawn on the calling thread, block by
    block just before it is represented, and no thread is started.

    Use it as a context manager: leaving the block, normally or by an
    exception, stops the producer and joins its thread. After an early exit
    the stream may have advanced by up to one step more than was consumed.
    """

    def __init__(self, steps: int, next_indices, inputs: np.ndarray, fill, represent,
                 ring: np.ndarray, out: np.ndarray, ahead: bool = True):
        self._steps = steps
        self._next_indices = next_indices
        self._inputs = inputs
        self._fill = fill
        self._represent = represent
        self._ring = ring
        self._out = out
        per_block = len(ring[0])
        self._rows = [min(per_block, len(out) - j) for j in range(0, len(out), per_block)]
        self._free = queue.SimpleQueue()
        for k in range(len(ring)):
            self._free.put(k)
        self._ready = queue.SimpleQueue()
        self._stopping = False
        self._thread = None
        self._inline = None
        if ahead:
            self._thread = threading.Thread(target=self._produce, name="srepr-draws")
        else:
            self._inline = self._draws()

    def _draws(self):
        """The draws in stream order: ``(idx, x)`` for each step, then the
        ring index of each block as it is filled."""
        for _ in range(self._steps):
            idx = self._next_indices()
            x = self._inputs[idx]
            yield idx, x
            for rows in self._rows:
                k = self._free.get()  # blocks come back in ring order
                if self._stopping:
                    return
                self._fill(self._ring[k][:rows], x)
                yield k

    def _produce(self) -> None:
        try:
            for item in self._draws():
                self._ready.put(item)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the consumer side
            self._ready.put(exc)

    def _take(self):
        if self._inline is not None:
            return next(self._inline)
        item = self._ready.get()
        if isinstance(item, BaseException):
            raise item
        return item

    def __iter__(self):
        for _ in range(self._steps):
            idx, x = self._take()
            j = 0
            for rows in self._rows:
                k = self._take()
                for i in range(rows):
                    self._out[j] = self._represent(k, i, x)
                    j += 1
                self._free.put(k)
            yield idx, self._out

    def __enter__(self) -> "DrawAhead":
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stopping = True
            self._free.put(-1)  # wakes a producer waiting for a free block
            self._thread.join()


# ---------------------------------------------------------------------------
# Loss pieces
# ---------------------------------------------------------------------------

def mean_ce_loss_and_grad(
    w: np.ndarray,
    b: np.ndarray,
    reps: np.ndarray,
    labels: np.ndarray,
    balancing: BalancingSpec,
):
    """Average cross-entropy over the M stochastic representations.

    GRW multiplies each example's averaged loss by its class weight; LA
    adjusts the logits inside every per-sample term. Returns the batch-mean
    loss and its gradients wrt the classifier (w, b).
    """
    balancing.validate()
    w_ex = example_weights(balancing, labels)
    loss = 0.0
    gw = np.zeros_like(w)
    gb = np.zeros_like(b)
    for r in reps:
        z = classifier_logits(w, b, r)
        if balancing.kind == "la":
            z = logit_adjust(z, balancing.frequencies, balancing.rho)
        loss_j, dz = softmax_ce(z, labels, w_ex)
        loss += loss_j
        gw += r.T @ dz
        gb += dz.sum(axis=0)
    m = len(reps)
    return loss / m, gw / m, gb / m


def mean_ce_loss(w, b, reps, labels, balancing: BalancingSpec) -> float:
    loss, _, _ = mean_ce_loss_and_grad(w, b, reps, labels, balancing)
    return loss


def teacher_probs(w: np.ndarray, b: np.ndarray, reps: np.ndarray, tau_kd: float):
    """Temperature-scaled predictions of the M virtual teachers and their
    mean, shapes (M, B, K) and (B, K). Teachers are constants: no gradient
    path exists through the returned arrays."""
    if tau_kd <= 0.0:
        raise ValueError("tau_kd must be positive")
    logits = np.einsum("mbl,lk->mbk", reps, w) + b
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


def student_alpha(theta_swa, w, b, x, tau_kd: float, activation: str = "relu"):
    """Concentrations of the student's implicit Dirichlet on the averaged
    extractor's representation. The student's mean prediction equals the
    temperature-scaled softmax of the same logits."""
    z = classifier_logits(w, b, features(theta_swa, np.atleast_2d(x), activation))
    alpha, _ = student_alpha_from_logits(z, tau_kd)
    return alpha


def dirichlet_kl(alpha, beta):
    """KL divergence between Dirichlet distributions, closed form.

    Accepts (K,) or (B, K) row pairs; returns a scalar or (B,).
    """
    a = np.atleast_2d(np.asarray(alpha, dtype=np.float64))
    bb = np.atleast_2d(np.asarray(beta, dtype=np.float64))
    if np.any(a <= 0.0) or np.any(bb <= 0.0):
        raise ValueError("concentration parameters must be positive")
    a0 = a.sum(axis=1)
    b0 = bb.sum(axis=1)
    val = (
        gammaln(a0)
        - gammaln(a).sum(axis=1)
        - gammaln(b0)
        + gammaln(bb).sum(axis=1)
        + ((a - bb) * (digamma(a) - digamma(a0)[:, None])).sum(axis=1)
    )
    return float(val[0]) if np.asarray(alpha).ndim == 1 else val


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
    term1 = -(t * (psi_a - psi_a0[:, None])).sum(axis=1)
    kl_flat = dirichlet_kl(a, np.ones_like(a))
    kl_flat = np.atleast_1d(kl_flat)
    loss = (term1 + kl_flat / b0).mean()

    tri_a = polygamma(1, a)
    tri_a0 = polygamma(1, a0)
    t_sum = t.sum(axis=1)
    g_term1 = -t * tri_a + (t_sum * tri_a0)[:, None]
    g_kl = (a - 1.0) * tri_a - ((a0 - k) * tri_a0)[:, None]
    grad = (g_term1 + g_kl / b0[:, None]) / n
    return float(loss), grad


def kd_loss(alpha, beta, p_bar) -> float:
    loss, _ = kd_loss_and_alpha_grad(alpha, beta, p_bar)
    return loss


def srepr_batch_loss_and_grad(
    w: np.ndarray,
    b: np.ndarray,
    reps: np.ndarray,
    f_swa: np.ndarray,
    labels: np.ndarray,
    balancing: BalancingSpec,
    config: SreprConfig,
):
    """Combined stage-2 loss on one batch and its classifier gradients.

    The rebalancing spec touches only the cross-entropy term; the
    distillation term always distills the unweighted teacher ensemble.
    """
    ce, gw_ce, gb_ce = mean_ce_loss_and_grad(w, b, reps, labels, balancing)

    probs, p_bar = teacher_probs(w, b, reps, config.kd_temperature)
    beta = estimate_beta(probs, config.beta_floor)
    z = classifier_logits(w, b, f_swa)
    alpha, dalpha_dz = student_alpha_from_logits(z, config.kd_temperature)
    kd, dkd_dalpha = kd_loss_and_alpha_grad(alpha, beta, p_bar)
    dkd_dz = dkd_dalpha * dalpha_dz
    gw_kd = f_swa.T @ dkd_dz
    gb_kd = dkd_dz.sum(axis=0)

    loss = config.ce_weight * ce + config.kd_weight * kd
    gw = config.ce_weight * gw_ce + config.kd_weight * gw_kd
    gb = config.ce_weight * gb_ce + config.kd_weight * gb_kd
    return loss, gw, gb, {"ce": ce, "kd": kd}


def srepr_retrain(
    theta_swa,
    posterior: SwagPosterior | None,
    phi_init,
    dataset: LongTailDataset,
    balancing: BalancingSpec,
    config: SreprConfig,
    optim: SgdHyper,
    rng: np.random.Generator,
    activation: str = "relu",
):
    """Stochastic-representation re-training of the classifier.

    Fresh extractor samples are drawn every batch; the teacher Dirichlet is
    re-fit from them under the current classifier, and only (w, b) move.
    The batch indices and draws come from ``rng`` through a DrawAhead, in
    the inline order, so the result is the same bits whether it runs them
    one step ahead on its producer thread (when a step draws at least
    ``DRAW_AHEAD_NUMBERS`` numbers) or inline.
    """
    config.validate()
    balancing.validate()
    if config.stochastic_source == "posterior" and posterior is None:
        raise ValueError("posterior required for stochastic source 'posterior'")
    w = phi_init[0].copy()
    b = phi_init[1].copy()
    f_swa_all = features(theta_swa, dataset.features, activation)
    m, batch = config.num_samples, optim.batch_size
    if config.stochastic_source == "posterior":
        ring = member_ring(m, (posterior.theta_dim,))
        layers = [[theta_layers(posterior, row) for row in block] for block in ring]

        def fill(rows, x):
            fill_theta(posterior, rng, rows)

        def represent(k, i, x):
            return features(layers[k][i], x, activation)
    else:
        ring = member_ring(m, (batch, dataset.input_dim))

        def fill(rows, x):
            jitter_inputs(x, config.jitter_std, rng, out=rows)

        def represent(k, i, x):
            return features(theta_swa, ring[k][i], activation)

    def loss_and_grads(batch_and_reps):
        idx, reps = batch_and_reps
        loss, gw, gb, _ = srepr_batch_loss_and_grad(
            w, b, reps, f_swa_all[idx], dataset.labels[idx], balancing, config
        )
        return loss, [gw, gb]

    sampler = _stage2_sampler(balancing)
    draws = DrawAhead(stage2_steps(dataset, optim), lambda: sampler(dataset, batch, rng),
                      dataset.features, fill, represent, ring,
                      np.empty((m, batch, f_swa_all.shape[1])),
                      ahead=m * ring[0, 0].size >= DRAW_AHEAD_NUMBERS)
    with draws:
        fit_head("srepr", [w, b], loss_and_grads, draws, dataset, optim)
    return w, b
