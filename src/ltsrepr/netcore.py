"""Minimal differentiable model core.

An MLP feature extractor followed by a linear classifier, with hand-written
reverse-mode gradients for the fixed forward graph, a numerically stable
softmax / cross-entropy, and SGD with Nesterov momentum, an explicit L2
penalty term, and a single-cycle cosine learning-rate schedule.

All math is float64. Losses plug into `backward` as callables mapping
(logits, targets) -> (batch-mean loss, d(mean loss)/d(logits)).

Every ModelParams holds its parameters in one C-contiguous vector ``flat``
laid out in checkpoint order (W0, b0, ..., W, b); its per-layer arrays are
views into it, so the feature extractor is the prefix ``flat[:theta_dim]``.
The pretraining loop hands ``backward`` one gradient ModelParams to write
into, and `sgd_update_arrays` moves the whole vector with one fused
Nesterov step using scratch buffers held in `OptimState`.

`features` also runs stacked layers: R extractor draws as weights
(R, fan_in, fan_out) and biases (R, 1, fan_out), or R inputs (R, B, D),
give (R, B, L) in one call. numpy's matmul runs one gemm per member, so
each member's representation is the same bits as its own 2-D call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .util import check

PROB_FLOOR = 1e-30


def _relu(z, out=None):
    return np.maximum(z, 0.0, out=out)


def _drelu(z):
    # a bool mask: multiplying by it gives the same bits as by its float64 cast
    return z > 0.0


def _tanh(z, out=None):
    return np.tanh(z, out=out)


def _dtanh(z):
    t = np.tanh(z)
    return 1.0 - t * t


ACTIVATIONS = {"relu": (_relu, _drelu), "tanh": (_tanh, _dtanh)}


def param_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat`` with the given shapes, which must
    account for every entry of its last axis; leading axes of ``flat``
    lead every view."""
    views = []
    offset = 0
    lead = flat.shape[:-1]
    for shape in shapes:
        n = prod(shape)
        views.append(flat[..., offset : offset + n].reshape(*lead, *shape))
        offset += n
    if offset != flat.shape[-1]:
        raise ValueError(f"flat vector has {flat.shape[-1]} entries, expected {offset}")
    return views


class ModelParams:
    """Feature-extractor layer pairs plus the linear classifier.

    ``layers`` holds (weight (fan_in, fan_out), bias (fan_out,)) pairs; the
    classifier maps representations (L,) to class logits (K,) via ``w`` of
    shape (L, K) and ``b`` of shape (K,). All of them are views into one
    C-contiguous float64 vector ``flat`` laid out in that order, extractor
    first, so the extractor is ``flat[:theta_dim]``. The constructor packs
    its inputs into a new vector; `from_flat` and `like` wrap an existing one.
    """

    def __init__(self, layers, w, b):
        arrays = [a for pair in layers for a in pair] + [w, b]
        flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
        self._bind(flat, [np.shape(a) for a in arrays])

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes) -> "ModelParams":
        """Views into ``flat`` (no copy) with the given per-array shapes,
        extractor pairs first, classifier pair last."""
        params = cls.__new__(cls)
        params._bind(flat, shapes)
        return params

    def _bind(self, flat: np.ndarray, shapes) -> None:
        if flat.dtype != np.float64 or flat.ndim != 1 or not flat.flags.c_contiguous:
            raise ValueError("parameters must be one C-contiguous float64 vector")
        if len(shapes) < 2 or len(shapes) % 2:
            raise ValueError(f"{len(shapes)} parameter arrays; expected an even count >= 2")
        views = param_views(flat, shapes)
        self.flat = flat
        self.shapes = tuple(tuple(shape) for shape in shapes)
        self.layers = list(zip(views[0:-2:2], views[1:-2:2]))
        self.w, self.b = views[-2], views[-1]

    def __reduce__(self):
        # pickle and deepcopy rebuild the views over one vector, not copies of each
        return ModelParams.from_flat, (self.flat, self.shapes)

    def like(self, flat: np.ndarray) -> "ModelParams":
        """This layout over another vector (views, no copy)."""
        return ModelParams.from_flat(flat, self.shapes)

    def copy(self) -> "ModelParams":
        return self.like(self.flat.copy())

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays, extractor first, classifier last."""
        return [a for pair in self.layers for a in pair] + [self.w, self.b]

    @property
    def theta_dim(self) -> int:
        """Size of the feature-extractor prefix of ``flat``."""
        return self.flat.size - self.w.size - self.b.size

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


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def features(
    layers: list[tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    activation: str = "relu",
    return_cache: bool = False,
    out=None,
):
    """Representations for a batch: linear layers with the nonlinearity
    between layers (the final representation itself is linear).

    Leading axes broadcast through ``a @ w + b``: stacked layers (weights
    (R, fan_in, fan_out), biases (R, 1, fan_out)) or stacked inputs
    (R, B, D) give (R, B, L), one gemm per member. ``out``, when given,
    holds one array per layer that receives that layer's output (None for
    a fresh array), so a loop that repeats the same shapes allocates
    nothing large; the result is then its last entry."""
    act, _ = ACTIVATIONS[activation]
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    cache = []
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        if a.shape[-1] != w.shape[-2]:
            raise ValueError(
                f"layer {i}: input width {a.shape[-1]} != weight fan-in {w.shape[-2]}"
            )
        z = np.matmul(a, w, out=None if out is None else out[i])
        z += b
        if return_cache:
            cache.append((a, z))
            a = z if i == last else act(z)
        else:
            # nothing keeps the pre-activation, so it is overwritten
            a = z if i == last else act(z, out=z)
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
    """Per-example -log p[y], with the target probability floored before log.
    Probabilities (..., B, K) give (..., B)."""
    p = np.asarray(probs, dtype=np.float64)
    # the fancy index lays (M, B) out column-major; C order keeps each
    # member's row contiguous, so its mean sums as a 1-D call's does
    py = np.maximum(p[..., np.arange(len(labels)), labels], PROB_FLOOR, order="C")
    return -np.log(py)


def softmax_ce(logits: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None):
    """Batch-mean softmax cross-entropy and its gradient wrt the logits.

    Unweighted: loss mean(ce), gradient (p - onehot) / B. With per-example
    weights w: loss mean(w * ce), gradient (p - onehot) * w / B, with no
    renormalization by the batch's total weight. Logits (M, B, K) for M
    stacked members of one batch give M losses, each the same bits as that
    member's own (B, K) call.
    """
    p = softmax(logits)
    n = len(labels)
    ce = cross_entropy(p, labels)
    p[..., np.arange(n), labels] -= 1.0
    if weights is None:
        return ce.mean(axis=-1), p / n
    return (weights * ce).mean(axis=-1), p * (weights / n)[:, None]


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
    out: ModelParams | None = None,
):
    """Exact batch-mean gradients for every parameter.

    Returns (loss, ModelParams-shaped gradients). The gradients are written
    into ``out`` (a ModelParams with the same layout, reused across steps)
    when given, else into a new one. Raises if a forward intermediate goes
    non-finite, naming the offending layer.
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

    grads = params.like(np.empty_like(params.flat)) if out is None else out
    np.matmul(feats.T, dlogits, out=grads.w)
    np.sum(dlogits, axis=0, out=grads.b)
    d = dlogits @ params.w.T

    last = len(params.layers) - 1
    for i in range(last, -1, -1):
        a_in, z = cache[i]
        dz = d if i == last else d * dact(z)
        gw, gb = grads.layers[i]
        np.matmul(a_in.T, dz, out=gw)
        np.sum(dz, axis=0, out=gb)
        if i:
            d = dz @ params.layers[i][0].T
    return loss, grads


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
class OptimConfig:
    """The ``[optim]`` section: SGD hyperparameters. Stage 1 runs them as
    given; stage 2 replaces ``lr`` and ``epochs`` with its own. Mixup
    applies to stage 1 only."""

    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.001
    epochs: int = 60
    batch_size: int = 64
    mixup_alpha: float = 0.0

    def validate(self) -> None:
        check(
            (self.lr > 0.0, "optim.lr must be positive"),
            (0.0 <= self.momentum < 1.0, "optim.momentum must be in [0, 1)"),
            (self.weight_decay >= 0.0, "optim.weight_decay must be >= 0"),
            (self.epochs >= 1, "optim.epochs must be >= 1"),
            (self.batch_size >= 1, "optim.batch_size must be >= 1"),
            (self.mixup_alpha >= 0.0, "optim.mixup_alpha must be >= 0 (0 disables mixup)"),
        )


@dataclass
class OptimState:
    """Step counter plus, per parameter array, a Nesterov momentum buffer
    and two scratch buffers the update writes its temporaries into."""

    hyper: OptimConfig
    total_steps: int
    t: int = 0
    buffers: list[np.ndarray] = field(default_factory=list)
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @classmethod
    def for_arrays(cls, arrays, hyper: OptimConfig, total_steps: int) -> "OptimState":
        return cls(hyper, total_steps, 0, [np.zeros_like(a) for a in arrays],
                   [(np.empty_like(a), np.empty_like(a)) for a in arrays])


def sgd_update_arrays(arrays, grads, state: OptimState, lr: float | None = None) -> float:
    """One in-place Nesterov step over a list of arrays.

    The effective gradient adds the L2 penalty term 2 * wd * param; with
    momentum mu the buffer update is v <- mu v + g' and the parameter moves
    along g' + mu v. Temporaries go to the state's scratch buffers, with the
    same operations in the same order as the allocating expressions, so the
    result is the same bits. Pass a ModelParams as ``[params.flat]`` to move
    it in one step. Returns the learning rate actually used.
    """
    if lr is None:
        lr = cosine_lr(state.t, state.total_steps, state.hyper.lr)
    mu = state.hyper.momentum
    wd = state.hyper.weight_decay
    for p, g, v, (g_eff, step) in zip(arrays, grads, state.buffers, state.scratch, strict=True):
        np.multiply(p, 2.0 * wd, out=g_eff)
        g_eff += g
        if mu != 0.0:
            v *= mu
            v += g_eff
            np.multiply(v, mu, out=step)
            step += g_eff
            step *= lr
            p -= step
        else:
            g_eff *= lr
            p -= g_eff
    state.t += 1
    return lr
