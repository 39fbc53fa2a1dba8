"""Reference forms the package does not ship, kept as test oracles: the
closed-form Dirichlet KL and loss-only views of the srepr loss terms."""

import numpy as np
from scipy.special import digamma, gammaln

from ltsrepr.retrain import kd_loss_and_alpha_grad, mean_ce_loss_and_grad


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


def mean_ce_loss(w, b, reps, labels, balancing) -> float:
    return mean_ce_loss_and_grad(w, b, reps, labels, balancing)[0]


def kd_loss(alpha, beta, p_bar) -> float:
    return kd_loss_and_alpha_grad(alpha, beta, p_bar)[0]
