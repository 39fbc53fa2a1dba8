"""Minimal differentiable model core.

An MLP feature extractor followed by a linear classifier, with hand-written
reverse-mode gradients for the fixed forward graph, a numerically stable
softmax / cross-entropy, and SGD with Nesterov momentum, an explicit L2
penalty term, and a single-cycle cosine learning-rate schedule.

All math is float64. Losses plug into `backward` as callables mapping
(logits, targets) -> (batch-mean loss, d(mean loss)/d(logits)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-30


def _relu(z):
    return np.maximum(z, 0.0)


def _drelu(z):
    return (z > 0.0).astype(np.float64)


def _tanh(z):
    return np.tanh(z)


def _dtanh(z):
    t = np.tanh(z)
    return 1.0 - t * t


ACTIVATIONS = {"relu": (_relu, _drelu), "tanh": (_tanh, _dtanh)}


@dataclass
class ModelParams:
    """Feature-extractor layer pairs plus the linear classifier.

    ``layers`` holds (weight (fan_in, fan_out), bias (fan_out,)) pairs; the
    classifier maps representations (L,) to class logits (K,) via ``w`` of
    shape (L, K) and ``b`` of shape (K,).
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    w: np.ndarray
    b: np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(
            [(w.copy(), b.copy()) for w, b in self.layers], self.w.copy(), self.b.copy()
        )

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays, extractor first, classifier last."""
        out = []
        for w, b in self.layers:
            out.extend([w, b])
        out.extend([self.w, self.b])
        return out

    def theta_arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in self.layers:
            out.extend([w, b])
        return out

    @property
    def repr_dim(self) -> int:
        return self.layers[-1][0].shape[1] if self.layers else self.w.shape[0]

    @property
    def num_classes(self) -> int:
        return self.w.shape[1]


def init_params(
    rng: np.random.Generator,
    input_dim: int,
    hidden_sizes: tuple[int, ...],
    repr_dim: int,
    num_classes: int,
) -> ModelParams:
    """Fan-in-scaled uniform initialization for every weight and bias."""
    sizes = [input_dim, *hidden_sizes, repr_dim]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        layers.append(
            (
                rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                rng.uniform(-bound, bound, size=fan_out),
            )
        )
    bound = 1.0 / np.sqrt(repr_dim)
    w = rng.uniform(-bound, bound, size=(repr_dim, num_classes))
    b = rng.uniform(-bound, bound, size=num_classes)
    return ModelParams(layers, w, b)


def init_classifier(rng: np.random.Generator, repr_dim: int, num_classes: int):
    bound = 1.0 / np.sqrt(repr_dim)
    return (
        rng.uniform(-bound, bound, size=(repr_dim, num_classes)),
        rng.uniform(-bound, bound, size=num_classes),
    )


def flatten_params(params: ModelParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in params.arrays()])


def theta_size(params: ModelParams) -> int:
    return sum(a.size for a in params.theta_arrays())


def param_views(flat: np.ndarray, arrays) -> list[np.ndarray]:
    """Consecutive views of ``flat`` shaped like ``arrays``, which must
    account for every entry of ``flat``."""
    views = []
    offset = 0
    for a in arrays:
        views.append(flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    if offset != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, expected {offset}")
    return views


def unflatten_params(flat: np.ndarray, template: ModelParams) -> ModelParams:
    """Rebuild a ModelParams with the template's shapes from a flat vector."""
    arrays = [v.copy() for v in param_views(flat, template.arrays())]
    n_layers = len(template.layers)
    layers = [(arrays[2 * i], arrays[2 * i + 1]) for i in range(n_layers)]
    return ModelParams(layers, arrays[-2], arrays[-1])


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def features(
    layers: list[tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    activation: str = "relu",
    return_cache: bool = False,
):
    """Representations for a batch: linear layers with the nonlinearity
    between layers (the final representation itself is linear)."""
    act, _ = ACTIVATIONS[activation]
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    cache = []
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        if a.shape[1] != w.shape[0]:
            raise ValueError(
                f"layer {i}: input width {a.shape[1]} != weight fan-in {w.shape[0]}"
            )
        z = a @ w + b
        cache.append((a, z))
        a = z if i == last else act(z)
    if single:
        a = a[0]
    return (a, cache) if return_cache else a


def classifier_logits(w: np.ndarray, b: np.ndarray, feats: np.ndarray) -> np.ndarray:
    return feats @ w + b


def model_logits(params: ModelParams, x: np.ndarray, activation: str = "relu") -> np.ndarray:
    return classifier_logits(params.w, params.b, features(params.layers, x, activation))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max subtraction).

    Entries are floored at a tiny positive value so extreme logit spreads
    still give strictly positive probabilities; the floor perturbs the sum
    by at most K * 1e-30.
    """
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return np.maximum(e / e.sum(axis=-1, keepdims=True), PROB_FLOOR)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def predict_proba(params: ModelParams, x: np.ndarray, activation: str = "relu") -> np.ndarray:
    return softmax(model_logits(params, x, activation))


# ---------------------------------------------------------------------------
# Losses (callback contract: (logits, targets) -> (mean loss, grad wrt logits))
# ---------------------------------------------------------------------------

def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-example -log p[y], with the target probability floored before log."""
    p = np.asarray(probs, dtype=np.float64)
    py = p[np.arange(len(labels)), labels]
    return -np.log(np.maximum(py, PROB_FLOOR))


def softmax_ce(logits: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None):
    """Batch-mean softmax cross-entropy and its gradient wrt the logits.

    Unweighted: loss mean(ce), gradient (p - onehot) / B. With per-example
    weights w: loss mean(w * ce), gradient (p - onehot) * w / B, with no
    renormalization by the batch's total weight.
    """
    p = softmax(logits)
    n = len(labels)
    ce = cross_entropy(p, labels)
    p[np.arange(n), labels] -= 1.0
    if weights is None:
        return ce.mean(), p / n
    return (weights * ce).mean(), p * (weights / n)[:, None]


def soft_ce_loss_and_grad(logits: np.ndarray, targets: np.ndarray):
    """Cross-entropy against soft target rows (e.g. mixup); grad (p - t) / B."""
    logp = log_softmax(logits)
    loss = -(targets * logp).sum(axis=1).mean()
    grad = (softmax(logits) - targets) / len(targets)
    return loss, grad


# ---------------------------------------------------------------------------
# Reverse-mode gradients for the fixed MLP + loss graph
# ---------------------------------------------------------------------------

def backward(
    params: ModelParams,
    x: np.ndarray,
    targets,
    loss_and_grad=softmax_ce,
    activation: str = "relu",
):
    """Exact batch-mean gradients for every parameter.

    Returns (loss, ModelParams-shaped gradients). Raises if a forward
    intermediate goes non-finite, naming the offending layer.
    """
    _, dact = ACTIVATIONS[activation]
    with np.errstate(invalid="ignore", over="ignore"):
        feats, cache = features(params.layers, np.atleast_2d(x), activation, return_cache=True)
    for i, (_, z) in enumerate(cache):
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"non-finite pre-activation in extractor layer {i}")
    logits = classifier_logits(params.w, params.b, feats)
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits in classifier layer")
    loss, dlogits = loss_and_grad(logits, targets)

    gw = feats.T @ dlogits
    gb = dlogits.sum(axis=0)
    d = dlogits @ params.w.T

    last = len(params.layers) - 1
    glayers: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    for i in range(last, -1, -1):
        a_in, z = cache[i]
        dz = d if i == last else d * dact(z)
        glayers[i] = (a_in.T @ dz, dz.sum(axis=0))
        d = dz @ params.layers[i][0].T
    return loss, ModelParams(glayers, gw, gb)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Single-cycle cosine decay: base_lr at step 0, 0 at step == total_steps."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return 0.5 * base_lr * (1.0 + np.cos(np.pi * step / total_steps))


@dataclass(frozen=True)
class SgdHyper:
    """Static SGD hyperparameters shared by both training stages."""

    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 60
    batch_size: int = 64


@dataclass
class OptimState:
    """Step counter plus Nesterov momentum buffers, one per parameter array."""

    hyper: SgdHyper
    total_steps: int
    t: int = 0
    buffers: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_arrays(cls, arrays, hyper: SgdHyper, total_steps: int) -> "OptimState":
        return cls(hyper, total_steps, 0, [np.zeros_like(a) for a in arrays])


def sgd_update_arrays(arrays, grads, state: OptimState, lr: float | None = None) -> float:
    """One in-place Nesterov step over a list of arrays.

    The effective gradient adds the L2 penalty term 2 * wd * param; with
    momentum mu the buffer update is v <- mu v + g' and the parameter moves
    along g' + mu v. Returns the learning rate actually used.
    """
    if lr is None:
        lr = cosine_lr(state.t, state.total_steps, state.hyper.base_lr)
    mu = state.hyper.momentum
    wd = state.hyper.weight_decay
    for p, g, v in zip(arrays, grads, state.buffers):
        g_eff = g + 2.0 * wd * p
        if mu != 0.0:
            v *= mu
            v += g_eff
            p -= lr * (g_eff + mu * v)
        else:
            p -= lr * g_eff
    state.t += 1
    return lr


def sgd_step(params: ModelParams, grads: ModelParams, state: OptimState, lr: float | None = None) -> float:
    """One optimizer step over all model parameters (in place)."""
    return sgd_update_arrays(params.arrays(), grads.arrays(), state, lr)
