"""Shared helpers: labelled RNG streams, config range checks, small numeric
utilities and length-checked reads from binary files."""

from __future__ import annotations

import io

import numpy as np

# Labelled spawn keys so every consumer of randomness inside a run gets an
# independent, reproducible stream derived from the single run seed. Keys
# 12, 14 and 15 are retired; the others keep their numbers.
STREAM_CLASS_MEANS = 0
STREAM_TRAIN_NOISE = 1
STREAM_TEST_NOISE = 2
STREAM_INIT = 10
STREAM_BATCH = 11
STREAM_RETRAIN_BATCH = 13
STREAM_ANALYSIS = 16
STREAM_ENSEMBLE = 17
STREAM_MIXUP = 18


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream); same pair always reproduces."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def check(*rules) -> None:
    """Raise ValueError with the message of the first ``(ok, message)``
    rule that does not hold."""
    for ok, message in rules:
        if not ok:
            raise ValueError(message)


def to_float32(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` rounded to little-endian float32, the values a checkpoint
    or a dataset cache stores: the one check of every array a file holds.
    Raises ValueError naming ``what`` unless every value is finite (a value
    beyond float32's range rounds to infinity)."""
    with np.errstate(over="ignore"):
        rounded = values.astype("<f4")
    if not np.isfinite(rounded).all():
        raise ValueError(f"{what} are non-finite or beyond float32 range")
    return rounded


def round_half_up(x):
    """Round with ties away from the floor (0.5 -> 1), unlike banker's rounding."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5)


class SizedReader:
    """Length-checked reads from an open binary file of the given kind
    ("checkpoint", "dataset cache"): a read past the end raises ValueError
    naming the field, before anything is read."""

    def __init__(self, f, kind: str):
        self.f = f
        self.kind = kind
        self.left = f.seek(0, io.SEEK_END)
        f.seek(0)

    def take(self, n: int, what: str) -> bytes:
        if n > self.left:
            raise ValueError(
                f"truncated {self.kind}: {what} needs {n} bytes at offset {self.f.tell()}, "
                f"{self.left} left"
            )
        self.left -= n
        return self.f.read(n)

    def peek(self, n: int) -> bytes:
        pos = self.f.tell()
        data = self.f.read(n)
        self.f.seek(pos)
        return data
