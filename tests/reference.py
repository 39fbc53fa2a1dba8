"""Reference forms the package does not ship, kept as test oracles: the
closed-form Dirichlet KL, loss-only views of the srepr loss terms, the
soft-target cross-entropy written over an unfloored log-softmax, input
jitter as one draw and one forward per member, one posterior member's
float32 forward, the SWA moments of float32 snapshots written out in
float64, both dispersions over the stack of all M members, and the
allocating softmax cross-entropy and per-layer-scan backward pass that
netcore's in-place forms must match bit for bit, and stage 1 for one seed
on its own (P,) parameter vector, which every member of a lock-step group
must match bit for bit.

The gamma functions here are scipy's ``gammaln`` and ``digamma``. The
package evaluates its own in numpy (``retrain._gamma_functions``: log-gamma
within 2e-14 and digamma within 4e-15 of max(1, |value|), trigamma within
4e-15 relative, for x in [1e-6, 1e15]; test_retrain.py checks those bounds
against scipy), so these oracles stay independent of it."""

import numpy as np
from scipy.special import digamma, gammaln

import ltsrepr.data as data_mod
import ltsrepr.netcore as net
import ltsrepr.pipeline as pl
import ltsrepr.swag as swag_mod
from ltsrepr.checkpoint import Checkpoint
from ltsrepr.netcore import ACTIVATIONS, PROB_FLOOR, features, param_views, softmax
from ltsrepr.retrain import kd_loss_and_alpha_grad, mean_ce_loss_and_grad
from ltsrepr.util import STREAM_BATCH, STREAM_INIT, STREAM_MIXUP, rng_stream


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


def soft_ce_loss_and_grad(logits, targets):
    """Cross-entropy against soft target rows (B, K): loss
    -mean(sum(t * log_softmax(z))), gradient (softmax(z) - t) / B."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = -(targets * logp).sum(axis=1).mean()
    grad = (softmax(logits) - targets) / len(targets)
    return loss, grad


def mean_ce_loss(w, b, reps, labels, balancing) -> float:
    return mean_ce_loss_and_grad(w, b, reps, labels, balancing)[0]


def kd_loss(alpha, beta, p_bar) -> float:
    return kd_loss_and_alpha_grad(alpha, beta, p_bar)[0]


def jittered_per_member(layers, x, std, m, rng, activation="relu"):
    """(M, B, L): ``features(layers, x + std * eps)`` for M draws of eps,
    each member drawn and forwarded on its own."""
    return np.stack([features(layers, x + std * rng.standard_normal(x.shape), activation)
                     for _ in range(m)])


def float32_member_forward(row, shapes, x, activation="relu"):
    """(N, L): the rows ``x`` under the extractor drawn into the float64
    vector ``row`` (layer ``shapes``), with ``row`` and ``x`` each rounded
    to float32 and the float32 forward widened back to float64."""
    views = param_views(np.asarray(row, dtype=np.float32), shapes)
    layers = list(zip(views[0::2], views[1::2]))
    return features(layers, np.asarray(x, dtype=np.float32), activation).astype(np.float64)


def float64_moments(snapshots):
    """The running SWA moments of ``snapshots``, each widened to float64
    before it is squared: m <- (n m + x) / (n + 1), m2 <- (n m2 + x * x) / (n + 1)."""
    mean = sq_mean = np.zeros(len(snapshots[0]))
    for n, snap in enumerate(snapshots):
        x = np.asarray(snap, dtype=np.float64)
        mean = (n * mean + x) / (n + 1)
        sq_mean = (n * sq_mean + x * x) / (n + 1)
    return mean, sq_mean


def stacked_dispersion_repr(reps):
    """Mean cosine distance of the M members of an (M, B, L) stack to their
    centroid, each cosine taken on its own; a zero norm on either side of a
    cosine gives distance 1."""
    r = np.asarray(reps, dtype=np.float64)
    centroid = r.mean(axis=0)
    denom = np.linalg.norm(r, axis=-1) * np.linalg.norm(centroid, axis=-1)
    dots = np.einsum("mbl,bl->mb", r, centroid)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)
    return (1.0 - cos).mean(axis=0)


def stacked_dispersion_prob(preds):
    """H(mean) - mean(H) over an (M, B, K) stack of predictions, floored
    at 0."""
    p = np.asarray(preds, dtype=np.float64)

    def entropy(q):
        return -(q * np.log(np.maximum(q, PROB_FLOOR))).sum(axis=-1)

    return np.maximum(entropy(p.mean(axis=0)) - entropy(p).mean(axis=0), 0.0)


def allocating_softmax_ce(logits, targets, weights=None):
    """`netcore.softmax_ce` with a fresh array for every step: the softmax
    as max-subtract, exp and normalize, the loss as ``.mean``."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = np.maximum(e / e.sum(axis=-1, keepdims=True), PROB_FLOOR)
    n = len(targets)
    if np.ndim(targets) == 1:
        ce = -np.log(np.maximum(p[..., np.arange(n), targets], PROB_FLOOR, order="C"))
        p[..., np.arange(n), targets] -= 1.0
    else:
        ce = -(targets * np.log(p)).sum(axis=-1)
        p -= targets
    if weights is None:
        return ce.mean(axis=-1), p / n
    return (weights * ce).mean(axis=-1), p * (weights / n)[:, None]


def per_layer_scan_backward(params, x, targets, loss_and_grad, activation="relu"):
    """`netcore.backward` with a finiteness scan of every pre-activation, in
    layer order, and then of the logits, raising the FloatingPointError
    that names the first non-finite one; bias gradients by ``np.sum`` and
    each activation's slope computed from its pre-activation and applied
    out of place. Returns (loss, flat gradient vector)."""
    act, _ = ACTIVATIONS[activation]
    slope = {"relu": lambda z: z > 0.0, "tanh": lambda z: 1.0 - np.tanh(z) * np.tanh(z)}[activation]
    a = np.atleast_2d(x).astype(params.flat.dtype)
    cache = []
    with np.errstate(invalid="ignore", over="ignore"):
        for i, (w, b) in enumerate(params.layers):
            z = a @ w + b
            cache.append((a, z))
            a = z if i == len(params.layers) - 1 else act(z)
        feats = a
        logits = feats @ params.w + params.b
    for i, (_, z) in enumerate(cache):
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"non-finite pre-activation in extractor layer {i}")
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits in classifier layer")
    loss, dlogits = loss_and_grad(logits, targets)
    dlogits = dlogits.astype(params.flat.dtype, copy=False)
    grads = params.like(np.empty_like(params.flat))
    np.matmul(feats.T, dlogits, out=grads.w)
    np.sum(dlogits, axis=0, out=grads.b)
    d = dlogits @ params.w.T
    last = len(params.layers) - 1
    for i in range(last, -1, -1):
        a_in, z = cache[i]
        dz = d if i == last else d * slope(z)
        gw, gb = grads.layers[i]
        np.matmul(a_in.T, dz, out=gw)
        np.sum(dz, axis=0, out=gb)
        if i:
            d = dz @ params.layers[i][0].T
    return loss, grads.flat


def solo_pretrain(cfg, datasets):
    """Stage 1 for one seed on its own (P,) float32 vector: one 2-D
    `backward` and one SGD step per batch, each batch drawn by its own
    call. Returns what `pipeline.run_pretrain` returns."""
    train, _ = datasets
    seed, optim, swa = cfg.run.seed, cfg.optim, cfg.swa
    params = net.init_params(rng_stream(seed, STREAM_INIT), train.input_dim,
                             cfg.model.hidden_sizes, cfg.model.repr_dim, train.num_classes)
    params = params.like(params.flat.astype(np.float32))
    train_x = train.features.astype(np.float32)
    spe = data_mod.steps_per_epoch(train.num_examples, optim.batch_size)
    total = spe * optim.epochs
    posterior = swag_mod.new_posterior(params) if swa.enabled else None
    state = net.OptimState.for_arrays([params.flat], optim)
    rng_batch, rng_mix = rng_stream(seed, STREAM_BATCH), rng_stream(seed, STREAM_MIXUP)
    epoch_losses = []
    for epoch in range(optim.epochs):
        running = 0.0
        for i in range(spe):
            step = epoch * spe + i
            if swa.enabled:
                lr = swag_mod.swa_learning_rate(step, total, optim.lr, swa)
            else:
                lr = net.cosine_lr(step, total, optim.lr)
            idx = data_mod.instance_balanced_indices(train, optim.batch_size, rng_batch)
            x, y = train_x[idx], train.labels[idx]
            if optim.mixup_alpha > 0.0:
                x, y = data_mod.mixup_batch(x, y, optim.mixup_alpha, train.num_classes, rng_mix)
            loss, grads = net.backward(params, x, y, activation=cfg.model.activation)
            net.sgd_update_arrays([params.flat], [grads.flat], state, lr)
            running += loss
        if swa.enabled and swag_mod.should_capture((epoch + 1) * spe, total, swa, spe):
            swag_mod.update_moments(posterior, params)
        epoch_losses.append(running / spe)
    if swa.enabled:
        swag_mod.freeze(posterior)
        params = swag_mod.swa_params(posterior)
    model = Checkpoint(params, posterior, pl._metadata(cfg, "pretrain", swa=swa.enabled))
    return model.rounded(), epoch_losses
