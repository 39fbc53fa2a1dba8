"""Synthetic long-tailed data: counts, splits, and rebalanced sampling.

Walks through the dataset generator: the exponential class-count schedule,
the many/medium/few split assignment, what instance-balanced vs
class-balanced sampling does to the label stream, and the binary cache
format.

Run: python demos/01_longtail_data.py
"""

import os
import tempfile

import numpy as np

from ltsrepr.data import (
    DatasetConfig,
    class_balanced_indices,
    dataset_key,
    instance_balanced_indices,
    load_dataset_pair,
    longtail_class_counts,
    make_longtail_dataset,
    save_dataset_pair,
)

# The desk-scale benchmark: 10 classes whose training counts decay
# exponentially with imbalance factor 0.01 (head 500, tail 5).
counts = longtail_class_counts(num_classes=10, max_count=500, imbalance_factor=0.01)
print("class counts:", counts.tolist())

config = DatasetConfig()
train, test = make_longtail_dataset(config, seed=0)
print(f"train N={train.num_examples}, test N={test.num_examples} (balanced)")
print("frequencies:", np.round(train.frequencies, 4).tolist())
print("split tags: ", train.splits)

# Instance-balanced sampling reproduces the long tail; class-balanced
# sampling flattens it to 1/K per class.
rng = np.random.default_rng(1)
labels_ib = train.labels[instance_balanced_indices(train, 50_000, rng)]
labels_cb = train.labels[class_balanced_indices(train, 50_000, rng)]
print("\nempirical class share over 50k draws:")
print("  instance-balanced:", np.round(np.bincount(labels_ib, minlength=10) / 50_000, 3))
print("  class-balanced:   ", np.round(np.bincount(labels_cb, minlength=10) / 50_000, 3))

# Datasets round-trip through a flat binary cache (float32 payload) that
# records the config and seed it was made for; a run reads it only for those.
# The generator's features are already float32 values, so the cache gives
# back exactly what it was handed.
key = dataset_key(config, seed=0)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "benchmark.bin")
    save_dataset_pair(path, train, test, key)
    train2, _ = load_dataset_pair(path, key)
    print(f"\ncache file: {os.path.getsize(path)} bytes;",
          "labels identical:", bool(np.array_equal(train.labels, train2.labels)),
          "features identical:", bool(np.array_equal(train.features, train2.features)))
