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
import json
import struct
from dataclasses import dataclass

import numpy as np

from .netcore import ModelParams, theta_size
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


def _read_array(f) -> np.ndarray:
    rows, cols = struct.unpack("<II", f.read(8))
    data = np.frombuffer(f.read(4 * rows * cols), dtype="<f4").astype(np.float64)
    return data.reshape(rows, cols)


def _unflatten_to_arrays(flat: np.ndarray, template: ModelParams) -> list[np.ndarray]:
    arrays = []
    offset = 0
    for a in template.arrays():
        arrays.append(flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    return arrays


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
                       for i, a in enumerate(_unflatten_to_arrays(flat, params))]
    if metadata is not None:
        blob = json.dumps(metadata, sort_keys=True, allow_nan=False).encode("utf-8")
        chunks += [struct.pack("<I", len(blob)), blob]
    with open(path, "wb") as f:
        f.writelines(chunks)


def _params_from_arrays(arrays: list[np.ndarray]) -> ModelParams:
    if len(arrays) < 4 or len(arrays) % 2 != 0:
        raise ValueError(f"checkpoint has {len(arrays)} arrays; expected even count >= 4")
    pairs = []
    for i in range(0, len(arrays) - 2, 2):
        w, b = arrays[i], arrays[i + 1]
        pairs.append((w, b.reshape(-1)))
    return ModelParams(pairs, arrays[-2], arrays[-1].reshape(-1))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != MODEL_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        version, count = struct.unpack("<II", f.read(8))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        params = _params_from_arrays([_read_array(f) for _ in range(count)])

        posterior = None
        metadata = None
        peek = f.read(8)
        if peek == SWAG_MAGIC:
            (n,) = struct.unpack("<I", f.read(4))
            groups = []
            for _ in range(3):
                flats = [_read_array(f).reshape(-1) for _ in range(count)]
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
            peek = f.read(8)
        if peek:
            if len(peek) < 4:
                raise ValueError("truncated metadata trailer")
            (length,) = struct.unpack("<I", peek[:4])
            blob = peek[4:] + f.read(length - (len(peek) - 4))
            metadata = json.loads(blob.decode("utf-8"))
    return Checkpoint(params=params, posterior=posterior, metadata=metadata)


def config_hash(config_text: str) -> str:
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()
