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

import numpy as np

from .netcore import ModelParams, cosine_lr, features, param_views
from .util import check


@dataclass(frozen=True)
class SwaConfig:
    """The ``[swa]`` section: whether stage 1 averages weights, the fraction
    of its steps after which averaging starts, the constant learning rate
    of the averaging phase, and the posterior draws analysis makes.

    Snapshots are captured every steps-per-epoch steps past the start, so
    they land on epoch boundaries.
    """

    enabled: bool = True
    start_frac: float = 0.75
    swa_lr: float = 0.12
    swag_samples: int = 10

    def validate(self) -> None:
        check(
            (self.swag_samples >= 1, "swa.swag_samples must be >= 1"),
            (not self.enabled or 0.0 < self.start_frac < 1.0, "swa.start_frac must be in (0, 1)"),
            (not self.enabled or self.swa_lr > 0.0, "swa.swa_lr must be positive"),
        )


@dataclass
class SwagPosterior:
    """First/second moments over the flat parameter vector plus the frozen
    diagonal covariance. Only the leading ``theta_dim`` entries (the feature
    extractor) participate in sampling."""

    mean: np.ndarray
    sq_mean: np.ndarray
    count: int
    theta_dim: int
    template: ModelParams
    sigma: np.ndarray | None = None
    frozen: bool = False
    _std: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def theta_std(self) -> np.ndarray:
        """sqrt of the extractor's diagonal covariance, computed once per
        ``sigma`` rather than once per draw."""
        if self._std is None or self._std[0] is not self.sigma:
            self._std = (self.sigma, np.sqrt(self.sigma[: self.theta_dim]))
        return self._std[1]


def new_posterior(template: ModelParams) -> SwagPosterior:
    size = template.flat.size
    return SwagPosterior(
        mean=np.zeros(size),
        sq_mean=np.zeros(size),
        count=0,
        theta_dim=template.theta_dim,
        template=template.copy(),
    )


def update_moments(posterior: SwagPosterior, params: ModelParams) -> SwagPosterior:
    """Fold one snapshot into the running moments:
    m <- (n m + theta) / (n+1), m2 <- (n m2 + theta^2) / (n+1), n <- n+1."""
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
    posterior.sq_mean += flat * flat
    posterior.sq_mean /= n + 1
    posterior.count = n + 1
    return posterior


def freeze(posterior: SwagPosterior) -> SwagPosterior:
    """Fix the diagonal covariance max(m2 - m^2, 0) and stop accepting
    snapshots. Needs at least two captures for a non-degenerate variance."""
    if posterior.count < 2:
        raise ValueError(f"need >= 2 captured snapshots, have {posterior.count}")
    posterior.sigma = np.maximum(posterior.sq_mean - posterior.mean**2, 0.0)
    posterior.frozen = True
    return posterior


def swa_params(posterior: SwagPosterior) -> ModelParams:
    """The averaged point estimate (feature extractor and classifier)."""
    if posterior.count < 1:
        raise ValueError("no snapshots captured")
    return posterior.template.like(posterior.mean.copy())


def fill_theta(posterior: SwagPosterior, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill every (theta_dim,) row of the float64 buffer ``out`` with one
    feature-extractor draw mean + sqrt(diag) * eps, in place.

    Rows are drawn in C order, so filling an (M, theta_dim) buffer consumes
    ``rng`` exactly as M single draws do and yields the same bits.
    """
    if not posterior.frozen:
        raise ValueError("posterior must be frozen before sampling")
    rng.standard_normal(out=out)
    out *= posterior.theta_std()
    out += posterior.mean[: posterior.theta_dim]


def theta_layers(posterior: SwagPosterior, flat: np.ndarray):
    """The extractor's (weight, bias) layer pairs as views into one
    (theta_dim,) draw, or stacked views into an (R, theta_dim) block of R
    draws: weights (R, fan_in, fan_out) and biases (R, 1, fan_out), which
    `features` runs as R members at once."""
    views = param_views(flat, posterior.template.shapes[:-2])
    weights, biases = views[0::2], views[1::2]
    if flat.ndim == 2:
        biases = [b[:, None, :] for b in biases]
    return list(zip(weights, biases))


def sample_theta(posterior: SwagPosterior, rng: np.random.Generator, out: np.ndarray | None = None):
    """Draw feature-extractor parameters mean + sqrt(diag) * eps.

    The draw fills ``out`` (a (theta_dim,) buffer, allocated when omitted)
    and the returned layer pairs are views into it.
    """
    if out is None:
        out = np.empty(posterior.theta_dim)
    fill_theta(posterior, rng, out)
    return theta_layers(posterior, out)


def posterior_features(posterior: SwagPosterior, x: np.ndarray, num_samples: int,
                       rng: np.random.Generator, activation: str = "relu") -> np.ndarray:
    """Representations of a batch under num_samples extractor draws, shape
    (M, B, L).

    Members are drawn from ``rng`` in member order by `sample_theta` into
    one reused parameter buffer, and each member's forward writes its last
    layer straight into the result. They run one at a time: at evaluation
    sizes the forward is bound by its matrix products, and stacking
    members, or keeping hidden-layer buffers for the whole call, raised
    the peak memory of the wide-profile evaluation and analysis.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    buf = np.empty(posterior.theta_dim)
    reps = np.empty((num_samples, len(x), posterior.template.repr_dim))
    for member in reps:
        layers = sample_theta(posterior, rng, out=buf)
        features(layers, x, activation, out=[None] * (len(layers) - 1) + [member])
    return reps


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
