"""Class-rebalancing strategies for classifier re-training.

Three strategies over empirical class frequencies pi: class-balanced
sampling (handled by the data module's sampler; the loss stays plain
cross-entropy), generalized re-weighting with normalized inverse-frequency
weights (1/pi_y)^rho, and logit adjustment adding rho * log(pi_k) to logit k
inside the training loss only. Evaluation always uses unadjusted logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcore import softmax_ce

KINDS = ("none", "cbs", "grw", "la")


@dataclass(frozen=True)
class BalancingSpec:
    """A rebalancing strategy, checked once, when it is made."""

    kind: str = "none"
    rho: float = 1.0
    frequencies: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown balancing kind {self.kind!r}; expected one of {KINDS}")
        if self.rho < 0.0:
            raise ValueError("rho must be >= 0")
        if self.kind in ("grw", "la"):
            if self.frequencies is None:
                raise ValueError(f"{self.kind} needs class frequencies")
            if np.any(np.asarray(self.frequencies) <= 0.0):
                raise ValueError("class frequencies must be strictly positive")

    @property
    def uses_class_balanced_sampler(self) -> bool:
        return self.kind == "cbs"


def grw_weights(pi, rho: float) -> np.ndarray:
    """Normalized inverse-frequency class weights; a probability vector."""
    pi = np.asarray(pi, dtype=np.float64)
    if np.any(pi <= 0.0):
        raise ValueError("class frequencies must be strictly positive")
    raw = (1.0 / pi) ** rho
    return raw / raw.sum()


def logit_adjust(logits, pi, rho: float) -> np.ndarray:
    """Shift logit k by rho * log(pi_k). Training-loss-side only."""
    pi = np.asarray(pi, dtype=np.float64)
    if np.any(pi <= 0.0):
        raise ValueError("class frequencies must be strictly positive")
    return np.asarray(logits, dtype=np.float64) + rho * np.log(pi)


def balanced_ce_loss_and_grad(logits: np.ndarray, labels: np.ndarray, spec: BalancingSpec):
    """Batch-mean rebalanced cross-entropy and its gradient wrt raw logits.

    none/cbs: plain CE. grw: per-example weight grw_weights(pi, rho)[y]
    without batch renormalization. la: CE of the adjusted logits (the shift
    is constant, so the gradient passes through unchanged).
    """
    if spec.kind == "la":
        logits = logit_adjust(logits, spec.frequencies, spec.rho)
    return softmax_ce(logits, labels, example_weights(spec, labels))


def example_weights(spec: BalancingSpec, labels: np.ndarray) -> np.ndarray | None:
    """Per-example loss weights under grw; None (unweighted) otherwise."""
    if spec.kind == "grw":
        return grw_weights(spec.frequencies, spec.rho)[labels]
    return None
