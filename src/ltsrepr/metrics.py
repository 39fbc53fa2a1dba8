"""Evaluation and analysis metrics.

Accuracy (overall and per class-frequency split), negative log-likelihood,
expected calibration error with confidence binning, per-instance dispersion
of stochastic representations (cosine distance to the centroid) and of
stochastic predictions (multi-distribution Jensen-Shannon divergence in
nats), quartile/correlation analysis of dispersion against per-instance NLL,
class probabilities from representations (the one prediction path of point
evaluation, posterior ensembles and analysis), and posterior-ensemble
prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import FEW, MANY, MEDIUM
from .netcore import PROB_FLOOR, classifier_logits, cross_entropy, softmax
from .retrain import DisAlignParams, disalign_logits
from .swag import SwagPosterior, member_features, sample_theta
from .util import check


# ---------------------------------------------------------------------------
# Core metrics
# ---------------------------------------------------------------------------

def accuracy(probs: np.ndarray, labels: np.ndarray, class_splits: list[str] | None = None):
    """Fraction of argmax matches, overall and per split.

    Argmax ties resolve to the lowest class index. Splits with no examples
    are reported as None rather than zero.
    """
    preds = np.argmax(probs, axis=1)
    correct = preds == labels
    out = {"all": float(correct.mean())}
    if class_splits is not None:
        tags = np.asarray(class_splits)
        for name in (MANY, MEDIUM, FEW):
            mask = np.isin(labels, np.flatnonzero(tags == name))
            out[name] = float(correct[mask].mean()) if mask.any() else None
    return out


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood in nats."""
    return float(cross_entropy(probs, labels).mean())


@dataclass(frozen=True)
class ReliabilityBin:
    lo: float
    hi: float
    count: int
    mean_confidence: float
    accuracy: float


def reliability_bins(probs: np.ndarray, labels: np.ndarray, n_bins: int = 15) -> list[ReliabilityBin]:
    """Partition by max confidence into ((n-1)/N, n/N] bins.

    A confidence exactly on a boundary lands in the lower bin; a confidence
    of 0 (impossible for a softmax, handled defensively) lands in bin 1.
    Empty bins report zero count and zeros for the averages.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    conf = probs.max(axis=1)
    correct = (np.argmax(probs, axis=1) == labels).astype(np.float64)
    boundaries = np.arange(1, n_bins + 1) / n_bins
    idx = np.searchsorted(boundaries, conf, side="left")
    idx = np.clip(idx, 0, n_bins - 1)
    bins = []
    for n in range(n_bins):
        mask = idx == n
        cnt = int(mask.sum())
        bins.append(
            ReliabilityBin(
                lo=n / n_bins,
                hi=(n + 1) / n_bins,
                count=cnt,
                mean_confidence=float(conf[mask].mean()) if cnt else 0.0,
                accuracy=float(correct[mask].mean()) if cnt else 0.0,
            )
        )
    return bins


def ece(probs: np.ndarray, labels: np.ndarray, n_bins: int = 15):
    """Expected calibration error: count-weighted |accuracy - confidence|
    over the occupied bins. Returns (value, bin table)."""
    bins = reliability_bins(probs, labels, n_bins)
    total = len(labels)
    value = sum(
        b.count / total * abs(b.accuracy - b.mean_confidence) for b in bins if b.count
    )
    return float(value), bins


# ---------------------------------------------------------------------------
# Dispersion
# ---------------------------------------------------------------------------

class MemberSums:
    """Per-instance sums over members, added one at a time in member order:
    of float64 representations and their unit vectors r/|r| (a zero r adds
    0), and of predictions and their entropies. numpy's axis-0 sum of an
    (M, B, ·) stack adds in this order, so a stream and its stack agree."""

    def __init__(self):
        self.count = 0
        self.reps = self.units = self.probs = self.entropies = 0.0

    def add(self, reps=None, probs=None) -> None:
        """One member's (B, L) representations and/or (B, K) predictions."""
        self.count += 1
        if reps is not None:
            norms = np.linalg.norm(reps, axis=-1, keepdims=True)
            self.reps += reps  # the first member makes the array, the rest add in place
            self.units += reps / np.where(norms > 0.0, norms, 1.0)
        if probs is not None:
            self.probs += probs
            self.entropies += _entropy(probs)


def _member_sums(members, field: str, what: str) -> MemberSums:
    """A stream's `MemberSums` as given, or those of a stack's members."""
    if not isinstance(members, MemberSums):
        stack, members = np.asarray(members, dtype=np.float64), MemberSums()
        for member in stack:
            members.add(**{field: member})
    check((members.count >= 2, f"need at least 2 {what}"))
    return members


def dispersion_repr(reps) -> np.ndarray:
    """Mean cosine distance of M representations r_m to their centroid c:
    1 - c . sum_m(r_m / |r_m|) / (M |c|), with sum_m r_m for c (a cosine does
    not scale). A zero r_m, or a zero c, counts as distance 1. Accepts (M, L)
    for one instance, (M, B, L) or a stream's `MemberSums`; returns float or
    (B,)."""
    sums = _member_sums(reps, "reps", "representations")
    c_norm = np.linalg.norm(sums.reps, axis=-1)
    cos_sum = (sums.reps * sums.units).sum(axis=-1) / np.where(c_norm > 0.0, c_norm, 1.0)
    disp = 1.0 - cos_sum / sums.count
    return float(disp) if disp.ndim == 0 else disp


def _entropy(p: np.ndarray) -> np.ndarray:
    q = np.maximum(p, PROB_FLOOR)
    return -(p * np.log(q)).sum(axis=-1)


def dispersion_prob(preds) -> np.ndarray:
    """Generalized Jensen-Shannon divergence of M predictions p_m with
    uniform weights, H(sum_m p_m / M) - sum_m H(p_m) / M, in nats; bounded
    by [0, log M]. Accepts (M, K) for one instance, (M, B, K) or a stream's
    `MemberSums`; returns float or (B,)."""
    sums = _member_sums(preds, "probs", "predictions")
    jsd = np.maximum(_entropy(sums.probs / sums.count) - sums.entropies / sums.count, 0.0)
    return float(jsd) if jsd.ndim == 0 else jsd


# ---------------------------------------------------------------------------
# Quartile / correlation analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxStats:
    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


@dataclass(frozen=True)
class QuartileAnalysis:
    groups: list[BoxStats]
    pcc: float | None


def pearson_corr(x, y) -> float | None:
    """Pearson correlation; undefined (None) when either side has zero
    variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt((xc * xc).sum())
    sy = np.sqrt((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        return None
    return float((xc * yc).sum() / (sx * sy))


def _box(values: np.ndarray) -> BoxStats:
    return BoxStats(
        count=int(values.size),
        minimum=float(values.min()),
        q1=float(np.percentile(values, 25)),
        median=float(np.percentile(values, 50)),
        q3=float(np.percentile(values, 75)),
        maximum=float(values.max()),
    )


def quartile_analysis(nll_per_instance, dispersion_per_instance) -> QuartileAnalysis:
    """Group instances into four equal-size groups by NLL order statistics
    (ties broken by input order) and summarize the dispersion of each group;
    also the Pearson correlation between NLL and dispersion."""
    nll_v = np.asarray(nll_per_instance, dtype=np.float64)
    disp = np.asarray(dispersion_per_instance, dtype=np.float64)
    if nll_v.size < 4:
        raise ValueError("need at least 4 instances for quartile groups")
    order = np.argsort(nll_v, kind="stable")
    groups = [_box(disp[part]) for part in np.array_split(order, 4)]
    return QuartileAnalysis(groups=groups, pcc=pearson_corr(nll_v, disp))


# ---------------------------------------------------------------------------
# Prediction and ensembling
# ---------------------------------------------------------------------------

def class_probs(
    reps: np.ndarray, w: np.ndarray, b: np.ndarray, disalign: DisAlignParams | None = None
) -> np.ndarray:
    """Softmax of the classifier logits ``reps @ w + b``, calibrated by
    `disalign_logits` first when ``disalign`` is given. Representations
    (N, L) give (N, K); M stacked members (M, N, L) give (M, N, K)."""
    logits = classifier_logits(w, b, reps)
    if disalign is not None:
        logits = disalign_logits(logits, disalign)
    return softmax(logits)


def posterior_sums(x, posterior: SwagPosterior, w, b, num_samples: int, rng, activation="relu",
                   disalign: DisAlignParams | None = None, reps: bool = False) -> MemberSums:
    """`MemberSums` of num_samples members' `class_probs` (calibrated by
    ``disalign``) and, with ``reps``, representations, each member drawn just
    before its forward; all share one draw buffer and one (N, L) output."""
    check((num_samples >= 1, "num_samples must be >= 1"))
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    draw, sums = np.empty(posterior.theta_dim), MemberSums()
    members = (sample_theta(posterior, rng, draw) for _ in range(num_samples))
    for rep in member_features(members, x, np.empty((len(x), posterior.repr_dim)), activation):
        sums.add(rep if reps else None, class_probs(rep, w, b, disalign))
    return sums


def ensemble_predict(x, posterior: SwagPosterior, w, b, num_samples: int, rng, activation="relu",
                     disalign: DisAlignParams | None = None) -> np.ndarray:
    """The mean `class_probs` of num_samples posterior draws (calibrated by
    ``disalign``), summed as they arrive: the bits of their stack's mean."""
    sums = posterior_sums(x, posterior, w, b, num_samples, rng, activation, disalign)
    return sums.probs / sums.count


# ---------------------------------------------------------------------------
# Report container and serialization
# ---------------------------------------------------------------------------

# The scalar metrics of a report, in the order every report and sweep table
# lists them. One that is undefined (a split with no test example) is None
# and left out of every file, never written as nan.
REPORT_SCALARS = ("acc_all", "acc_many", "acc_medium", "acc_few", "nll", "ece")


@dataclass
class MetricsReport:
    acc_all: float
    acc_many: float | None
    acc_medium: float | None
    acc_few: float | None
    nll: float
    ece: float
    bins: list[ReliabilityBin] = field(default_factory=list)
    pcc_repr: float | None = None
    pcc_prob: float | None = None
    per_class_weight_norm: list[float] | None = None  # (K,) classifier column norms
    per_class_marginal: list[float] | None = None  # (K,) mean predicted probability per class

    def to_json_dict(self) -> dict:
        """Stable key order; absent metrics are omitted entirely."""
        out = {}
        for key in REPORT_SCALARS:
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        out["bins"] = [[b.count, b.mean_confidence, b.accuracy] for b in self.bins]
        for key in ("pcc_repr", "pcc_prob", "per_class_weight_norm", "per_class_marginal"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def csv_rows(self) -> list[tuple[str, float]]:
        return [
            (key, getattr(self, key))
            for key in REPORT_SCALARS
            if getattr(self, key) is not None
        ]


def evaluate_probs(
    probs: np.ndarray,
    labels: np.ndarray,
    class_splits: list[str] | None,
    n_bins: int = 15,
) -> MetricsReport:
    """Bundle accuracy/NLL/ECE for a matrix of predictions."""
    acc = accuracy(probs, labels, class_splits)
    ece_value, bins = ece(probs, labels, n_bins)
    return MetricsReport(
        acc_all=acc["all"],
        acc_many=acc.get(MANY),
        acc_medium=acc.get(MEDIUM),
        acc_few=acc.get(FEW),
        nll=nll(probs, labels),
        ece=ece_value,
        bins=bins,
    )
