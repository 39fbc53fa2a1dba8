"""Synthetic long-tailed classification data.

Generates class-conditional Gaussian datasets whose per-class counts decay
exponentially with an imbalance factor, serves instance-balanced /
class-balanced / mixup batches, and exports/imports datasets in a flat
binary format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .util import (
    STREAM_CLASS_MEANS,
    STREAM_TEST_NOISE,
    STREAM_TRAIN_NOISE,
    SizedReader,
    check,
    rng_stream,
    round_half_up,
)

MANY = "many"
MEDIUM = "medium"
FEW = "few"

DATASET_MAGIC = b"LTDATA01"


@dataclass(frozen=True)
class DatasetConfig:
    """The ``[dataset]`` section: one synthetic long-tailed dataset (train +
    balanced test). The run seed is passed alongside it."""

    num_classes: int = 10
    input_dim: int = 20
    max_count: int = 500
    imbalance_factor: float = 0.01
    class_separation: float = 4.0
    noise_std: float = 1.0
    test_per_class: int = 100

    def validate(self) -> None:
        check(
            (self.num_classes >= 2, f"dataset.num_classes must be >= 2, got {self.num_classes}"),
            (self.input_dim >= 1, "dataset.input_dim must be positive"),
            (self.max_count >= 1, "dataset.max_count must be positive"),
            (0.0 < self.imbalance_factor <= 1.0,
             f"dataset.imbalance_factor must be in (0, 1], got {self.imbalance_factor}"),
            (self.class_separation > 0.0, "dataset.class_separation must be positive"),
            (self.noise_std > 0.0, "dataset.noise_std must be positive"),
            (self.test_per_class >= 1, "dataset.test_per_class must be positive"),
        )


@dataclass
class LongTailDataset:
    """Feature matrix plus labels and per-class bookkeeping.

    ``splits`` carries one tag per class (many/medium/few). For a balanced
    test set the tags are inherited from the training counts, since that is
    the grouping used at evaluation time.
    """

    features: np.ndarray  # (N, D) float64
    labels: np.ndarray  # (N,) int64
    class_counts: np.ndarray  # (K,) int64
    frequencies: np.ndarray  # (K,) float64, sums to 1
    splits: list[str]  # per-class tag
    _sorted_by_class: np.ndarray = field(repr=False, default=None)
    _class_starts: np.ndarray = field(repr=False, default=None)

    @classmethod
    def from_arrays(
        cls,
        features: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        splits: list[str] | None = None,
    ) -> "LongTailDataset":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or labels.ndim != 1 or len(features) != len(labels):
            raise ValueError("features must be (N, D) and labels (N,)")
        counts = np.bincount(labels, minlength=num_classes).astype(np.int64)
        if counts.size != num_classes:
            raise ValueError("labels outside [0, num_classes)")
        if np.any(counts < 1):
            empty = np.flatnonzero(counts < 1).tolist()
            raise ValueError(f"every class needs at least one example; empty: {empty}")
        frequencies = counts / counts.sum()
        if splits is None:
            splits = assign_splits(counts)
        order = np.argsort(labels, kind="stable")
        starts = np.concatenate([[0], np.cumsum(counts)])
        return cls(features, labels, counts, frequencies, list(splits), order, starts)

    @property
    def num_examples(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return len(self.class_counts)

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


def longtail_class_counts(num_classes: int, max_count: int, imbalance_factor: float) -> np.ndarray:
    """Per-class training counts n_k = round(n_max * gamma^(k/(K-1))), floored at 1.

    Rounding is half-up so the schedule is reproducible across platforms.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if not 0.0 < imbalance_factor <= 1.0:
        raise ValueError("imbalance_factor must be in (0, 1]")
    k = np.arange(num_classes, dtype=np.float64)
    raw = max_count * imbalance_factor ** (k / (num_classes - 1))
    return np.maximum(round_half_up(raw), 1.0).astype(np.int64)


def assign_splits(class_counts) -> list[str]:
    """Tag each class by training-count bucket: >100 many, 20-100 medium, <20 few."""
    counts = np.asarray(class_counts)
    if np.any(counts < 1):
        raise ValueError("class counts must be positive")
    tags = []
    for n in counts:
        if n > 100:
            tags.append(MANY)
        elif n >= 20:
            tags.append(MEDIUM)
        else:
            tags.append(FEW)
    return tags


def _class_means(rng: np.random.Generator, num_classes: int, dim: int, separation: float) -> np.ndarray:
    """Deterministic class means with pairwise distance >= separation.

    For K <= D the means are scaled orthonormal directions (pairwise distance
    exactly `separation`); otherwise random unit directions are rescaled by
    the worst pair.
    """
    if num_classes <= dim:
        raw = rng.standard_normal((dim, num_classes))
        q, r = np.linalg.qr(raw)
        q = q * np.sign(np.diag(r))  # fix QR sign ambiguity
        return (separation / np.sqrt(2.0)) * q.T
    directions = rng.standard_normal((num_classes, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    diffs = directions[:, None, :] - directions[None, :, :]
    dists = np.linalg.norm(diffs, axis=-1)
    np.fill_diagonal(dists, np.inf)
    min_dist = dists.min()
    if min_dist <= 0.0:
        raise ValueError("degenerate class directions; change the seed")
    return directions * (separation / min_dist)


def make_longtail_dataset(config: DatasetConfig, seed: int) -> tuple[LongTailDataset, LongTailDataset]:
    """Generate (train, test): exponentially imbalanced train, balanced test.

    Pure function of (config, seed); a fixed pair gives bitwise-equal output.
    """
    config.validate()
    counts = longtail_class_counts(
        config.num_classes, config.max_count, config.imbalance_factor
    )
    rng_means = rng_stream(seed, STREAM_CLASS_MEANS)
    rng_train = rng_stream(seed, STREAM_TRAIN_NOISE)
    rng_test = rng_stream(seed, STREAM_TEST_NOISE)

    means = _class_means(
        rng_means, config.num_classes, config.input_dim, config.class_separation
    )

    def sample_block(rng, per_class_counts):
        xs, ys = [], []
        for k, n in enumerate(per_class_counts):
            xs.append(means[k] + config.noise_std * rng.standard_normal((int(n), config.input_dim)))
            ys.append(np.full(int(n), k, dtype=np.int64))
        return np.concatenate(xs, axis=0), np.concatenate(ys)

    x_train, y_train = sample_block(rng_train, counts)
    x_test, y_test = sample_block(
        rng_test, np.full(config.num_classes, config.test_per_class, dtype=np.int64)
    )

    train = LongTailDataset.from_arrays(x_train, y_train, config.num_classes)
    test = LongTailDataset.from_arrays(
        x_test, y_test, config.num_classes, splits=train.splits
    )
    return train, test


def feature_standardizer(train_features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and std (floored) computed on the training split."""
    mean = train_features.mean(axis=0)
    std = train_features.std(axis=0)
    return mean, np.maximum(std, 1e-12)


def apply_standardizer(features: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (features - mean) / std


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def instance_balanced_indices(dataset: LongTailDataset, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-with-replacement draw over examples: each has probability 1/N."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if dataset.num_examples == 0:
        raise ValueError("dataset is empty")
    return rng.integers(0, dataset.num_examples, size=batch_size)


def class_balanced_indices(dataset: LongTailDataset, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw class uniform (1/K), then instance uniform within the class.

    Per-example probability is 1 / (K * n_y).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    classes = rng.integers(0, dataset.num_classes, size=batch_size)
    member = (rng.random(batch_size) * dataset.class_counts[classes]).astype(np.int64)
    return dataset._sorted_by_class[dataset._class_starts[classes] + member]


def mixup_batch(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float,
    num_classes: int,
    rng: np.random.Generator,
    lam: float | None = None,
):
    """Convex-combine a batch with a random pairing of itself.

    One mixing coefficient lam ~ Beta(alpha, alpha) is drawn per batch.
    Returns (mixed inputs, mixed one-hot targets); target rows sum to 1.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if len(x) < 2:
        raise ValueError("mixup needs at least 2 examples")
    if lam is None:
        lam = float(rng.beta(alpha, alpha))
    perm = rng.permutation(len(x))
    onehot = np.eye(num_classes, dtype=np.float64)[y]
    mixed_x = lam * x + (1.0 - lam) * x[perm]
    mixed_t = lam * onehot + (1.0 - lam) * onehot[perm]
    return mixed_x, mixed_t


def steps_per_epoch(num_examples: int, batch_size: int) -> int:
    """An epoch is ceil(N / batch_size) with-replacement batches."""
    return -(-num_examples // batch_size)


# ---------------------------------------------------------------------------
# Flat binary export/import
# ---------------------------------------------------------------------------

def write_dataset_record(f, dataset: LongTailDataset) -> None:
    """One record: magic, u32 N/K/D, N*D float32 row-major, N u32 labels."""
    n, d = dataset.features.shape
    k = dataset.num_classes
    f.write(DATASET_MAGIC)
    f.write(struct.pack("<III", n, k, d))
    f.write(np.ascontiguousarray(dataset.features, dtype="<f4").tobytes())
    f.write(dataset.labels.astype("<u4").tobytes())


def read_dataset_record(r: SizedReader, record: str) -> LongTailDataset:
    """Read one record, named ``record`` ("train", "test") in errors.

    Raises ValueError naming the record and the field at fault (magic,
    header, features, labels) for a truncated or malformed record.
    """
    magic = r.take(8, f"{record} magic")
    if magic != DATASET_MAGIC:
        raise ValueError(f"{record} record: bad dataset magic {magic!r}")
    n, k, d = struct.unpack("<III", r.take(12, f"{record} header"))
    features = np.frombuffer(r.take(4 * n * d, f"{record} features"), dtype="<f4").reshape(n, d)
    labels = np.frombuffer(r.take(4 * n, f"{record} labels"), dtype="<u4").astype(np.int64)
    if n and labels.max() >= k:
        raise ValueError(f"{record} labels: label {labels.max()} outside [0, {k})")
    return LongTailDataset.from_arrays(features.astype(np.float64), labels, k)


def save_dataset_pair(path, train: LongTailDataset, test: LongTailDataset) -> None:
    """Train and test as two consecutive records in one cache file."""
    with open(path, "wb") as f:
        write_dataset_record(f, train)
        write_dataset_record(f, test)


def load_dataset_pair(path) -> tuple[LongTailDataset, LongTailDataset]:
    """Read a cache written by `save_dataset_pair`; any byte after the test
    record is rejected."""
    with open(path, "rb") as f:
        r = SizedReader(f, "dataset cache")
        train = read_dataset_record(r, "train")
        test = read_dataset_record(r, "test")
        if r.left:
            raise ValueError(f"dataset cache has {r.left} unexpected bytes after the test record")
    test.splits = list(train.splits)
    return train, test
