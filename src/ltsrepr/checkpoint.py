"""Binary checkpoint format.

Base section: 8-byte magic, u32 format version, u32 array count, then per
array a (u32 rows, u32 cols) header followed by little-endian float32 data
in row-major order. Extractor weight/bias pairs come first, the classifier
pair last; bias vectors are written as 1 x n arrays.

Optional posterior section: 8-byte magic, u32 capture count, then the first
moment, second moment, and diagonal covariance, each as a full sequence of
per-array payloads in the same order/format as the base section.

Optional trailer: u32 length followed by that many bytes of UTF-8 JSON
metadata (method, balancing, seed, full config, config hash).
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass

import numpy as np

from .netcore import ModelParams, param_views, theta_size
from .swag import SwagPosterior

MODEL_MAGIC = b"SREPR001"
SWAG_MAGIC = b"SWAGDIAG"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    params: ModelParams
    posterior: SwagPosterior | None = None
    metadata: dict | None = None


def _array_record(a: np.ndarray, what: str) -> bytes:
    """(u32 rows, u32 cols) header plus float32 payload; rejects values that
    are non-finite or overflow float32."""
    a2 = np.atleast_2d(np.asarray(a, dtype=np.float64))
    with np.errstate(over="ignore"):
        data = np.ascontiguousarray(a2, dtype="<f4")
    if not np.isfinite(data).all():
        raise ValueError(f"cannot checkpoint {what}: non-finite or beyond float32 range")
    return struct.pack("<II", *a2.shape) + data.tobytes()


def save_checkpoint(path, params: ModelParams, posterior: SwagPosterior | None = None,
                    metadata: dict | None = None) -> None:
    """Write a checkpoint; every value is validated before the file opens."""
    arrays = params.arrays()
    chunks = [MODEL_MAGIC, struct.pack("<II", FORMAT_VERSION, len(arrays))]
    chunks += [_array_record(a, f"parameter array {i}") for i, a in enumerate(arrays)]
    if posterior is not None:
        if not posterior.frozen:
            raise ValueError("only frozen posteriors are checkpointed")
        chunks += [SWAG_MAGIC, struct.pack("<I", posterior.count)]
        for name, flat in (("mean", posterior.mean), ("second moment", posterior.sq_mean),
                           ("covariance", posterior.sigma)):
            chunks += [_array_record(a, f"posterior {name} array {i}")
                       for i, a in enumerate(param_views(flat, arrays))]
    if metadata is not None:
        blob = json.dumps(metadata, sort_keys=True, allow_nan=False).encode("utf-8")
        chunks += [struct.pack("<I", len(blob)), blob]
    with open(path, "wb") as f:
        f.writelines(chunks)


class _Reader:
    """Length-checked reads from an open checkpoint file."""

    def __init__(self, f):
        self.f = f
        self.left = f.seek(0, io.SEEK_END)
        f.seek(0)

    def take(self, n: int, what: str) -> bytes:
        if n > self.left:
            raise ValueError(
                f"truncated checkpoint: {what} needs {n} bytes at offset {self.f.tell()}, "
                f"{self.left} left"
            )
        self.left -= n
        return self.f.read(n)

    def peek(self, n: int) -> bytes:
        pos = self.f.tell()
        data = self.f.read(n)
        self.f.seek(pos)
        return data

    def array(self, what: str) -> np.ndarray:
        rows, cols = struct.unpack("<II", self.take(8, f"{what} header"))
        data = np.frombuffer(self.take(4 * rows * cols, what), dtype="<f4")
        return data.astype(np.float64).reshape(rows, cols)


def _params_from_arrays(arrays: list[np.ndarray]) -> ModelParams:
    if len(arrays) < 4 or len(arrays) % 2 != 0:
        raise ValueError(f"checkpoint has {len(arrays)} arrays; expected even count >= 4")
    pairs = []
    for i in range(0, len(arrays) - 2, 2):
        w, b = arrays[i], arrays[i + 1]
        pairs.append((w, b.reshape(-1)))
    return ModelParams(pairs, arrays[-2], arrays[-1].reshape(-1))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint. Raises ValueError naming the section at fault
    (header, base array i, posterior group array i, metadata trailer) for a
    truncated or malformed file, and for any bytes after the trailer."""
    with open(path, "rb") as f:
        r = _Reader(f)
        magic = r.take(8, "magic")
        if magic != MODEL_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        version, count = struct.unpack("<II", r.take(8, "header"))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        base = [r.array(f"base array {i}") for i in range(count)]
        params = _params_from_arrays(base)

        posterior = None
        if r.peek(8) == SWAG_MAGIC:
            r.take(8, "posterior magic")
            (n,) = struct.unpack("<I", r.take(4, "posterior capture count"))
            groups = []
            for name in ("mean", "second moment", "covariance"):
                flats = []
                for i, ref in enumerate(base):
                    a = r.array(f"posterior {name} array {i}")
                    if a.shape != ref.shape:
                        raise ValueError(f"posterior {name} array {i} has shape {a.shape}, "
                                         f"base array is {ref.shape}")
                    flats.append(a.reshape(-1))
                groups.append(np.concatenate(flats))
            posterior = SwagPosterior(
                mean=groups[0],
                sq_mean=groups[1],
                count=n,
                theta_dim=theta_size(params),
                template=params.copy(),
                sigma=groups[2],
                frozen=True,
            )

        metadata = None
        if r.left:
            (length,) = struct.unpack("<I", r.take(4, "metadata trailer length"))
            try:
                metadata = json.loads(r.take(length, "metadata trailer").decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ValueError(f"metadata trailer is not UTF-8: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ValueError(f"metadata trailer is not valid JSON: {exc}") from None
            if r.left:
                raise ValueError(f"checkpoint has {r.left} unexpected bytes after the metadata trailer")
    return Checkpoint(params=params, posterior=posterior, metadata=metadata)


def config_hash(config_text: str) -> str:
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()
