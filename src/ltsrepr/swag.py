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

from .netcore import (
    ModelParams,
    cosine_lr,
    features,
    flatten_params,
    param_views,
    theta_size,
    unflatten_params,
)


@dataclass(frozen=True)
class SwaSchedule:
    """When averaging starts, how often snapshots are captured, and the
    constant learning rate used during the averaging phase.

    ``capture_interval_steps`` is a step modulus; training loops set it to
    their steps-per-epoch so captures land on epoch boundaries.
    """

    start_fraction: float = 0.75
    capture_interval_steps: int = 1
    swa_lr: float = 0.01

    def validate(self) -> None:
        if not 0.0 < self.start_fraction < 1.0:
            raise ValueError("start_fraction must be in (0, 1)")
        if self.capture_interval_steps < 1:
            raise ValueError("capture_interval_steps must be >= 1")
        if self.swa_lr <= 0.0:
            raise ValueError("swa_lr must be positive")


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
    size = flatten_params(template).size
    return SwagPosterior(
        mean=np.zeros(size),
        sq_mean=np.zeros(size),
        count=0,
        theta_dim=theta_size(template),
        template=template.copy(),
    )


def update_moments(posterior: SwagPosterior, params: ModelParams) -> SwagPosterior:
    """Fold one snapshot into the running moments:
    m <- (n m + theta) / (n+1), m2 <- (n m2 + theta^2) / (n+1), n <- n+1."""
    if posterior.frozen:
        raise ValueError("cannot update a frozen posterior")
    flat = flatten_params(params)
    if flat.size != posterior.mean.size:
        raise ValueError("snapshot shape does not match posterior")
    n = posterior.count
    posterior.mean = (n * posterior.mean + flat) / (n + 1)
    posterior.sq_mean = (n * posterior.sq_mean + flat * flat) / (n + 1)
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
    return unflatten_params(posterior.mean, posterior.template)


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
    (theta_dim,) draw."""
    views = param_views(flat, posterior.template.theta_arrays())
    return list(zip(views[0::2], views[1::2]))


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
    (M, B, L); draws are taken from ``rng`` in member order into one reused
    parameter buffer."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    buf = np.empty(posterior.theta_dim)
    reps = np.empty((num_samples, len(x), posterior.template.repr_dim))
    for j in range(num_samples):
        reps[j] = features(sample_theta(posterior, rng, out=buf), x, activation)
    return reps


def should_capture(step: int, total_steps: int, schedule: SwaSchedule) -> bool:
    """True when the completed-step count is strictly past the start fraction
    and on the capture modulus."""
    if step > total_steps:
        raise ValueError("step beyond total_steps")
    return (
        step > schedule.start_fraction * total_steps
        and step % schedule.capture_interval_steps == 0
    )


def swa_learning_rate(step: int, total_steps: int, base_lr: float, schedule: SwaSchedule) -> float:
    """Cosine decay before the averaging phase, constant swa_lr after it."""
    if step + 1 > schedule.start_fraction * total_steps:
        return schedule.swa_lr
    return cosine_lr(step, total_steps, base_lr)
