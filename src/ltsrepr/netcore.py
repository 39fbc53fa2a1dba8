"""Minimal differentiable model core.

An MLP feature extractor followed by a linear classifier, with hand-written
reverse-mode gradients for the fixed forward graph, one numerically stable
softmax cross-entropy for hard labels and soft target rows, and SGD with
Nesterov momentum, an explicit L2 penalty term, and a single-cycle cosine
learning-rate schedule.

Losses plug into `backward` as callables mapping (logits, targets) ->
(batch-mean loss, d(mean loss)/d(logits)).

Precision. Stage 1 trains in float32: its parameters, gradients, momentum,
SGD scratch buffers, input batches and activations are float32, because
gemm and the elementwise SGD passes run about twice as fast on half the
bytes. `features` runs in the dtype of its first weight and `backward`
writes gradients in the parameters' dtype. The softmax/CE head works in
float64 on the (B, K) logits (`softmax` casts), and its gradient is cast
back to the parameters' dtype. Every other forward of an extractor that
a stage reduces member by member runs in float32 too: srepr's posterior
members (`retrain.srepr_batches`), and eval's and analyze's members and
point model (`metrics.posterior_sums`, `metrics.point_probs`), each
widened once into the float64 head's input. Everything else stays
float64: the posterior draws, the SWA moments (``sq_mean - mean**2``
cancels, so snapshots are squared in float64), the training split's
forward that stage 2 trains on, stage 2's heads and losses, every
softmax and metric, and the Dirichlet fit. At every
stage boundary the arrays are float32 values held in float64, the values
a checkpoint stores, so a model handed on in memory and one read back
from disk are the same bits.

Every ModelParams holds its parameters in one C-contiguous vector ``flat``
laid out in checkpoint order (W0, b0, ..., W, b); its per-layer arrays are
views into it, so the feature extractor is the prefix ``flat[:theta_dim]``.
The pretraining loop hands ``backward`` one gradient ModelParams to write
into, and `sgd_update_arrays` moves the whole vector with one fused
Nesterov step: seven in-place passes over the parameters, the gradient,
the momentum (held as mu * v) and one scratch buffer held in `OptimState`.

`features` also runs stacked inputs: R inputs (R, B, D) give (R, B, L) in
one call. numpy's matmul runs one gemm per member, so each member's
representation is the same bits as its own 2-D call. A ModelParams over
an (S, P) block is a stack of S models, which `features` and `backward`
run the same way, one member per leading index: stage 1 trains a group of
seeds in lock-step so (`pipeline.run_pretrain_group`).

At desk scale a training step costs numpy dispatch more than arithmetic,
so `backward` keeps its calls few. Its non-finite guard tests one scalar,
the sum of squares of every pre-activation and logit (one BLAS dot per
array), and scans the layers one by one only when it is non-finite (see
`backward`). Reductions call the ufunc's ``reduce`` directly, which is
what ``np.sum`` and ``.mean`` call, temporaries a step owns are updated in
place, and a training loop hands `backward` a ``scratch`` dict that keeps
the step's large buffers for the next step. Each of these keeps every
operation, its order and its rounding, so the gradients are the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, prod

import numpy as np

from .util import check

PROB_FLOOR = 1e-30


def _relu(z, out=None):
    return np.maximum(z, 0.0, out=out)


def _drelu(a, out=None):
    # from the output a = max(z, 0): 1 where a > 0, exactly where z > 0, else 0
    return np.greater(a, 0.0, out=out)


def _tanh(z, out=None):
    return np.tanh(z, out=out)


def _dtanh(a, out=None):
    # from the output a = tanh(z): 1 - a^2
    t = np.multiply(a, a, out=out)
    return np.subtract(1.0, t, out=t)


# each activation with its slope, written in terms of the activation's output
ACTIVATIONS = {"relu": (_relu, _drelu), "tanh": (_tanh, _dtanh)}


def param_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the vector ``flat`` with the given shapes,
    which must account for every entry. The rows of an (S, P) block give
    stacked (S, *shape) views."""
    views = []
    offset = 0
    lead = flat.shape[:-1]
    for shape in shapes:
        n = prod(shape)
        views.append(flat[..., offset : offset + n].reshape(lead + tuple(shape)))
        offset += n
    if offset != flat.shape[-1]:
        raise ValueError(f"flat vector has {flat.shape[-1]} entries, expected {offset}")
    return views


class ModelParams:
    """Feature-extractor layer pairs plus the linear classifier.

    ``layers`` holds (weight (fan_in, fan_out), bias (fan_out,)) pairs; the
    classifier maps representations (L,) to class logits (K,) via ``w`` of
    shape (L, K) and ``b`` of shape (K,). All of them are views into one
    C-contiguous float32 or float64 vector ``flat`` laid out in that order,
    extractor first, so the extractor is ``flat[:theta_dim]``. The
    constructor packs its inputs into a new float64 vector; `from_flat` and
    `like` wrap an existing one, so stage 1 binds a float32 vector.

    A stack of S models is the same layout over the rows of one C-contiguous
    (S, P) block: every array gains a leading member axis, (S, fan_in,
    fan_out) and (S, fan_out), and `features` and `backward` run it member
    by member in one call. Stage 1 trains a group of seeds this way, with
    one ModelParams per seed over its row (`pipeline.run_pretrain_group`).
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
        if (flat.dtype not in (np.float32, np.float64) or flat.ndim not in (1, 2)
                or not flat.flags.c_contiguous):
            layout = "" if flat.flags.c_contiguous else "non-contiguous "
            raise ValueError("parameters must be one C-contiguous float32 or float64 vector "
                             f"or (S, P) block, got a {layout}{flat.ndim}-D {flat.dtype} array")
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

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays, extractor first, classifier last."""
        return [a for pair in self.layers for a in pair] + [self.w, self.b]

    @property
    def theta_dim(self) -> int:
        """Size of the feature-extractor prefix of ``flat`` (of each row)."""
        return self.flat.shape[-1] - prod(self.shapes[-2]) - prod(self.shapes[-1])

    @property
    def repr_dim(self) -> int:
        return self.shapes[-2][0]

    @property
    def num_classes(self) -> int:
        return self.shapes[-1][0]


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
    return ModelParams(layers, *init_classifier(rng, repr_dim, num_classes))


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
    activation: str,
    return_cache: bool = False,
    out=None,
):
    """Representations for a batch: linear layers with the nonlinearity
    between layers (the final representation itself is linear).

    Leading axes broadcast through ``a @ w + b``: stacked inputs (R, B, D),
    such as srepr's input-jitter copies, give (R, B, L), one gemm per
    member. Stacked layers, weights (S, fan_in, fan_out) and biases
    (S, fan_out) as a stacked `ModelParams` holds them, run S models at
    once: inputs (S, B, D) give (S, B, L), each member's rows through its
    own weights. ``out``, when given, holds one array per layer
    that receives that layer's output (None for a fresh array), so a loop
    that repeats the same shapes allocates nothing large; the result is
    then its last entry. The arithmetic runs in the first weight's dtype,
    to which ``x`` is cast. With ``return_cache`` it also returns, per
    layer, the layer's input and the sum of squares of its pre-activation,
    which `backward` needs; a hidden layer's output is the next layer's
    input."""
    act, _ = ACTIVATIONS[activation]
    a = np.asarray(x, dtype=layers[0][0].dtype if layers else np.float64)
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
        z += _rows(b)
        if return_cache:
            cache.append((a, np.vdot(z, z)))
        # nothing keeps the pre-activation, so it is overwritten
        a = z if i == last else act(z, out=z)
    if single:
        a = a[0]
    return (a, cache) if return_cache else a


def _rows(b: np.ndarray) -> np.ndarray:
    # a bias as it adds to every row: stacked biases (S, fan_out) gain a
    # row axis; a single one broadcasts as it is, which costs less
    return b if b.ndim == 1 else b[:, None, :]


def classifier_logits(w: np.ndarray, b: np.ndarray, feats: np.ndarray) -> np.ndarray:
    return feats @ w + _rows(b)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max subtraction).

    Entries are floored at a tiny positive value so extreme logit spreads
    still give strictly positive probabilities; the floor perturbs the sum
    by at most K * 1e-30.
    """
    z = np.asarray(logits, dtype=np.float64)
    # the ufunc reductions are what z.max and z.sum call; exp, divide and
    # floor then run in place on this call's own temporary
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return np.maximum(z, PROB_FLOOR, out=z)


# ---------------------------------------------------------------------------
# Losses (callback contract: (logits, targets) -> (mean loss, grad wrt logits))
# ---------------------------------------------------------------------------

def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-example -log p[y], with the target probability floored before log.
    Probabilities (..., B, K) give (..., B)."""
    return _target_nll(np.asarray(probs, dtype=np.float64), _label_index(labels))


def _label_index(labels: np.ndarray) -> tuple:
    """The index of each row's label entry in (..., B, K) probabilities:
    labels (B,) pick the same entries of every leading member, and labels
    (S, B) pick each member's own."""
    rows = np.arange(labels.shape[-1])
    if labels.ndim == 1:
        return ..., rows, labels
    return np.arange(len(labels))[:, None], rows, labels


def _target_nll(p: np.ndarray, index: tuple) -> np.ndarray:
    # the fancy index lays (M, B) out column-major; C order keeps each
    # member's row contiguous, so its mean sums as a 1-D call's does
    py = np.maximum(p[index], PROB_FLOOR, order="C")
    np.log(py, out=py)
    return np.negative(py, out=py)


def softmax_ce(logits: np.ndarray, targets: np.ndarray, weights: np.ndarray | None = None):
    """Batch-mean softmax cross-entropy and its gradient wrt the logits.

    ``targets`` holds hard labels (an integer array) or soft target rows
    (floats), such as mixup's; a label y is the one-hot row t. Unweighted:
    loss mean(ce), gradient (p - t) / B, where ce is -log p[y] for a label
    and -sum(t * log p) for a row, both over the floored `softmax`. With
    per-example weights w: loss mean(w * ce), gradient (p - t) * w / B,
    with no renormalization by the batch's total weight. Logits (M, B, K)
    give M losses, each the same bits as that member's own (B, K) call:
    labels (B,) are one batch every member scores, and labels (M, B) or
    rows (M, B, K) give each member its own batch.
    """
    p = softmax(logits)
    n = p.shape[-2]
    if targets.dtype.kind in "iu":
        index = _label_index(targets)
        ce = _target_nll(p, index)
        p[index] -= 1.0
    else:
        ce = -(targets * np.log(p)).sum(axis=-1)
        p -= targets
    # add.reduce then / n is what ce.mean does, so the same bits; the
    # gradient scales softmax's temporary in place
    if weights is None:
        p /= n
        return np.add.reduce(ce, axis=-1) / n, p
    p *= (weights / n)[:, None]
    return np.add.reduce(weights * ce, axis=-1) / n, p


# ---------------------------------------------------------------------------
# Reverse-mode gradients for the fixed MLP + loss graph
# ---------------------------------------------------------------------------

def backward(
    params: ModelParams,
    x: np.ndarray,
    targets,
    loss_and_grad=softmax_ce,
    *,
    activation: str,
    out: ModelParams | None = None,
    scratch: dict | None = None,
):
    """Exact batch-mean gradients for every parameter.

    Returns (loss, ModelParams-shaped gradients). The gradients are written
    into ``out`` (a ModelParams with the same layout, reused across steps)
    when given, else into a new one, in the parameters' dtype: the loss
    gradient is cast to it, so float32 parameters train in float32. The
    step's activations, slopes and back-propagated errors go to buffers
    kept in ``scratch``, a dict the caller keeps across steps, so a training
    loop allocates none of them after its first step (at desk shapes a
    stack of 8 makes them 128 KB each, the size from which malloc may map
    fresh pages for every allocation). Raises
    FloatingPointError if a forward intermediate goes non-finite, naming
    the offending layer.

    Stacked parameters (an (S, P) block, see `ModelParams`) train S models
    in one call: inputs (S, B, D), targets (S, B) or (S, B, K), and a loss
    of S batch means. Every operation runs per member (bias sums over each
    member's rows, transposes of each member's matrices), so each member's
    loss and gradients are the same bits as its own call.

    The finiteness gate is one scalar: the sum of every layer's
    pre-activation sum of squares and the logits' (`np.vdot` of each
    array with itself). A NaN or an infinity anywhere makes it non-finite,
    including a -inf that relu zeroes or a +inf that tanh maps to 1 before
    the next layer sees it. Only then are the layers scanned, in order, to
    name the first bad one, and then the logits; finite values whose
    squares overflowed make that scan find nothing, and the step goes on.
    A stack has one gate for all its members, so its error names the
    layer but not the member.
    """
    _, dact = ACTIVATIONS[activation]
    x = np.atleast_2d(x)
    layers = params.layers
    key = (x.shape, params.flat.dtype)
    buffers = None if scratch is None else scratch.get(key)
    if buffers is None:
        # per layer, (..., B, fan_out) buffers for its output, its slope
        # and the error back-propagated into it
        buffers = [[np.empty(x.shape[:-1] + w.shape[-1:], params.flat.dtype) for w, _ in layers]
                   for _ in range(3)]
        if scratch is not None:
            scratch[key] = buffers
    outputs, slopes, errors = buffers

    with np.errstate(invalid="ignore", over="ignore"):
        feats, cache = features(layers, x, activation, return_cache=True, out=outputs)
        logits = classifier_logits(params.w, params.b, feats)
        total = np.vdot(logits, logits)
        for _, square_sum in cache:
            total += square_sum
        if not isfinite(total):
            # layer i's pre-activation is the output of the extractor cut after it
            for i in range(len(layers)):
                if not np.all(np.isfinite(features(layers[: i + 1], x, activation))):
                    raise FloatingPointError(f"non-finite pre-activation in extractor layer {i}")
            if not np.all(np.isfinite(logits)):
                raise FloatingPointError("non-finite logits in classifier layer")
    loss, dlogits = loss_and_grad(logits, targets)
    dlogits = dlogits.astype(params.flat.dtype, copy=False)

    grads = params.like(np.empty_like(params.flat)) if out is None else out
    np.matmul(feats.swapaxes(-1, -2), dlogits, out=grads.w)
    np.add.reduce(dlogits, axis=-2, out=grads.b)
    last = len(layers) - 1
    d = np.matmul(dlogits, params.w.swapaxes(-1, -2), out=errors[last])

    for i in range(last, -1, -1):
        a_in, _ = cache[i]
        if i != last:
            d *= dact(outputs[i], out=slopes[i])
        gw, gb = grads.layers[i]
        np.matmul(a_in.swapaxes(-1, -2), d, out=gw)
        np.add.reduce(d, axis=-2, out=gb)
        if i:
            d = np.matmul(d, layers[i][0].swapaxes(-1, -2), out=errors[i - 1])
    return loss, grads


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Single-cycle cosine decay: base_lr at step 0, 0 at step == total_steps.

    A Python float: a numpy float64 scalar would turn every in-place pass
    over float32 parameters into a float64 loop."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return float(0.5 * base_lr * (1.0 + np.cos(np.pi * step / total_steps)))


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
            (self.mixup_alpha == 0.0 or self.batch_size >= 2,
             "optim.mixup_alpha > 0 needs optim.batch_size >= 2 (mixup pairs a batch's examples)"),
        )


@dataclass
class OptimState:
    """Per parameter array, a Nesterov momentum buffer, held as mu * v
    (the product both the step that makes v and the next step use), and
    one scratch buffer the update writes its temporaries into. The
    learning rate is not state: every step passes its own (see
    `sgd_update_arrays`)."""

    hyper: OptimConfig
    buffers: list[np.ndarray]
    scratch: list[np.ndarray]

    @classmethod
    def for_arrays(cls, arrays, hyper: OptimConfig) -> "OptimState":
        return cls(hyper, [np.zeros_like(a) for a in arrays], [np.empty_like(a) for a in arrays])


def sgd_update_arrays(arrays, grads, state: OptimState, lr: float) -> None:
    """One in-place Nesterov step over a list of arrays at the learning
    rate ``lr`` of the caller's schedule (`run_pretrain`, `fit_head`).

    The effective gradient adds the L2 penalty term 2 * wd * param; with
    momentum mu the buffer update is v <- mu v + g' and the parameter moves
    along g' + mu v. The state holds mu v rather than v, so a step is seven
    in-place passes over the parameter, the gradient, the buffer and one
    scratch buffer. Each pass rounds as the allocating expressions
    ``v = mu * v + g'`` and ``p -= lr * (g' + mu * v)`` do, so the result
    is the same bits. Pass a ModelParams as ``[params.flat]`` to move it in
    one step.
    """
    mu = state.hyper.momentum
    wd = state.hyper.weight_decay
    for p, g, u, g_eff in zip(arrays, grads, state.buffers, state.scratch, strict=True):
        np.multiply(p, 2.0 * wd, out=g_eff)
        g_eff += g
        if mu != 0.0:
            u += g_eff  # v
            u *= mu  # mu v, which the next step needs as well
            g_eff += u
        g_eff *= lr
        p -= g_eff
