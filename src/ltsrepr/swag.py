"""Running weight averaging with a diagonal Gaussian posterior.

Tracks first and second moments of parameter snapshots captured late in
training, freezes a diagonal covariance (second moment minus squared mean,
clamped at zero), samples feature-extractor parameters from the resulting
Gaussian, and runs the extractor under those draws. The classifier part of
the moments is kept for the averaged point estimate but excluded from
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from math import prod

import numpy as np

from .netcore import ModelParams, cosine_lr, features, param_views
from .util import check


@dataclass(frozen=True)
class SwaConfig:
    """The ``[swa]`` section: whether stage 1 averages weights, the fraction
    of its steps after which averaging starts, the constant learning rate
    of the averaging phase, and the posterior draws analysis makes (>= 2).

    Snapshots are captured every steps-per-epoch steps past the start, so
    they land on epoch boundaries.
    """

    enabled: bool = True
    start_frac: float = 0.75
    swa_lr: float = 0.12
    swag_samples: int = 10

    def validate(self) -> None:
        check(
            (self.swag_samples >= 2, f"swa.swag_samples must be >= 2, got {self.swag_samples}"),
            (not self.enabled or 0.0 < self.start_frac < 1.0, "swa.start_frac must be in (0, 1)"),
            (not self.enabled or self.swa_lr > 0.0, "swa.swa_lr must be positive"),
        )


@dataclass
class SwagPosterior:
    """First/second moments over the flat parameter vector, the parameter
    ``shapes`` (checkpoint order, extractor first) and, once frozen, the
    diagonal covariance ``sigma``. Only the extractor prefix, the leading
    ``theta_dim`` entries, participates in sampling."""

    mean: np.ndarray
    sq_mean: np.ndarray
    count: int
    shapes: tuple
    sigma: np.ndarray | None = None
    _std: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def frozen(self) -> bool:
        return self.sigma is not None

    @property
    def theta_dim(self) -> int:
        """Size of the extractor prefix: all but the classifier pair."""
        return self.mean.size - sum(prod(shape) for shape in self.shapes[-2:])

    @property
    def repr_dim(self) -> int:
        return self.shapes[-2][0]

    def theta_std(self) -> np.ndarray:
        """sqrt of the extractor's diagonal covariance, computed once per
        ``sigma`` rather than once per draw."""
        if self._std is None or self._std[0] is not self.sigma:
            self._std = (self.sigma, np.sqrt(self.sigma[: self.theta_dim]))
        return self._std[1]


def new_posterior(template: ModelParams) -> SwagPosterior:
    """An empty posterior over parameters laid out as ``template``."""
    size = template.flat.size
    return SwagPosterior(np.zeros(size), np.zeros(size), 0, template.shapes)


def update_moments(posterior: SwagPosterior, params: ModelParams) -> SwagPosterior:
    """Fold one snapshot into the running moments:
    m <- (n m + theta) / (n+1), m2 <- (n m2 + theta^2) / (n+1), n <- n+1.

    The moments are float64 whatever the snapshot's dtype; a float32
    snapshot is squared in float64, since m2 - m^2 cancels."""
    if posterior.frozen:
        raise ValueError("cannot update a frozen posterior")
    flat = params.flat
    if flat.size != posterior.mean.size:
        raise ValueError("snapshot shape does not match posterior")
    # in place, with the same operations in the same order as
    # (n * m + theta) / (n + 1), so the same bits
    n = posterior.count
    posterior.mean *= n
    posterior.mean += flat
    posterior.mean /= n + 1
    posterior.sq_mean *= n
    posterior.sq_mean += np.square(flat, dtype=np.float64)
    posterior.sq_mean /= n + 1
    posterior.count = n + 1
    return posterior


def freeze(posterior: SwagPosterior) -> SwagPosterior:
    """Fix the diagonal covariance max(m2 - m^2, 0) and stop accepting
    snapshots. Needs at least two captures for a non-degenerate variance."""
    if posterior.count < 2:
        raise ValueError(f"need >= 2 captured snapshots, have {posterior.count}")
    posterior.sigma = np.maximum(posterior.sq_mean - posterior.mean**2, 0.0)
    return posterior


def swa_params(posterior: SwagPosterior) -> ModelParams:
    """The averaged point estimate (feature extractor and classifier)."""
    if posterior.count < 1:
        raise ValueError("no snapshots captured")
    return ModelParams.from_flat(posterior.mean.copy(), posterior.shapes)


def extractor_layers(posterior: SwagPosterior, theta: np.ndarray):
    """The (weight, bias) layer pairs of one extractor draw, views into
    its (theta_dim,) vector ``theta`` of any dtype."""
    views = param_views(theta, posterior.shapes[:-2])
    return list(zip(views[0::2], views[1::2]))


def sample_theta(posterior: SwagPosterior, rng: np.random.Generator, out: np.ndarray | None = None):
    """Draw feature-extractor parameters mean + sqrt(diag) * eps: the one
    posterior draw.

    The draw fills ``out`` (a (theta_dim,) float64 buffer, which a caller
    may reuse for every member; allocated when omitted), and the returned
    (weight, bias) layer pairs are views into it. The normals and the draw
    are always float64; a caller that forwards members in float32 (srepr)
    rounds each draw into its row of a float32 block. M draws in a row
    consume ``rng`` exactly as filling an (M, theta_dim) block in one
    C-order call would.
    """
    if not posterior.frozen:
        raise ValueError("posterior must be frozen before sampling")
    if out is None:
        out = np.empty(posterior.theta_dim)
    rng.standard_normal(out=out)
    out *= posterior.theta_std()
    out += posterior.mean[: posterior.theta_dim]
    return extractor_layers(posterior, out)


def member_features(members, x: np.ndarray, out: np.ndarray, activation: str = "relu"):
    """The one posterior forward: yields, in member order, the (N, L)
    representations of the rows ``x`` (N, D) under each extractor in
    ``members`` (layer-pair lists; may be drawn lazily, each before its
    forward). Each 2-D forward writes its last layer straight into ``out``:
    one (N, L) buffer every member overwrites (eval and analyze reduce a
    member before the next), or an (M, N, L) table, a slice per member.
    Hidden layers go to buffers all members share, in ``out``'s dtype, so
    float32 members, ``x`` and ``out`` run wholly in float32 (srepr)."""
    hidden = None
    for layers, rep in zip(members, out if out.ndim == 3 else repeat(out)):
        if hidden is None:
            hidden = [np.empty((len(x), w.shape[1]), dtype=out.dtype) for w, _ in layers[:-1]]
        yield features(layers, x, activation, out=hidden + [rep])


def should_capture(step: int, total_steps: int, swa: SwaConfig, steps_per_epoch: int) -> bool:
    """True when the completed-step count is strictly past the start fraction
    and on an epoch boundary."""
    if step > total_steps:
        raise ValueError("step beyond total_steps")
    return step > swa.start_frac * total_steps and step % steps_per_epoch == 0


def swa_learning_rate(step: int, total_steps: int, base_lr: float, swa: SwaConfig) -> float:
    """Cosine decay before the averaging phase, constant swa_lr after it."""
    if step + 1 > swa.start_frac * total_steps:
        return swa.swa_lr
    return cosine_lr(step, total_steps, base_lr)
