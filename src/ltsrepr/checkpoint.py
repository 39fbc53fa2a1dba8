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
from dataclasses import dataclass, replace

import numpy as np

from .netcore import ModelParams, param_views
from .retrain import DisAlignParams
from .swag import SwagPosterior
from .util import SizedReader, to_float32

MODEL_MAGIC = b"SREPR001"
SWAG_MAGIC = b"SWAGDIAG"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    """One model, as the stages hand it on and a checkpoint file holds it:
    the parameters, the posterior when stage 1 averaged its weights, and
    the metadata (the run's config; after stage 2 the method, with lws's
    ``lws_tau`` or disalign's calibration)."""

    params: ModelParams
    posterior: SwagPosterior | None = None
    metadata: dict | None = None

    def rounded(self) -> "Checkpoint":
        """This model as a checkpoint file holds it: the parameters and the
        posterior's moments and covariance rounded through float32
        (`_float32`, which rejects what `save_checkpoint` rejects) and held
        in float64, so a model handed on in memory and the same model read
        back from disk are the same bits."""
        shapes = self.params.shapes

        def stored(flat, what, nonnegative=False):
            if flat is None:
                return None
            return _float32(flat, shapes, what, nonnegative).astype(np.float64)

        posterior = self.posterior
        if posterior is not None:
            posterior = replace(posterior, mean=stored(posterior.mean, "posterior mean array"),
                                sq_mean=stored(posterior.sq_mean, "posterior second moment array"),
                                sigma=stored(posterior.sigma, "posterior covariance array",
                                             nonnegative=True))
        return Checkpoint(self.params.like(stored(self.params.flat, "parameter array")),
                          posterior, self.metadata)

    def calibration(self) -> DisAlignParams | None:
        """The disalign calibration in the metadata, or None. Raises
        ValueError naming the field unless ``scale``, ``shift`` and
        ``gate_w`` each hold K finite numbers and ``gate_b`` one."""
        entry = (self.metadata or {}).get("disalign")
        if entry is None:
            return None
        k = self.params.num_classes
        values = {}
        for name, shape in (("scale", (k,)), ("shift", (k,)), ("gate_w", (k,)), ("gate_b", ())):
            where = f"checkpoint metadata disalign.{name}"
            try:
                v = np.asarray(entry[name])
            except (LookupError, TypeError):
                raise ValueError(f"{where} is missing") from None
            except ValueError:  # ragged nesting
                v = np.asarray(None)
            if v.dtype.kind not in "iuf":
                raise ValueError(f"{where} is not numeric: {entry[name]!r}")
            if v.shape != shape:
                got = f"{v.size} entries" if v.ndim == 1 else f"shape {v.shape}"
                want = f"model has {k} classes" if shape else "expected one number"
                raise ValueError(f"{where} has {got}, {want}")
            if not np.isfinite(v).all():
                raise ValueError(f"{where} is not finite")
            values[name] = v.astype(np.float64)
        return DisAlignParams(values["scale"], values["shift"], values["gate_w"],
                              float(values["gate_b"]))


def _checked(values: np.ndarray, what: str, nonnegative: bool) -> np.ndarray:
    """``values`` rounded to float32 (`to_float32`). A covariance
    (``nonnegative``) must hold no negative value either: a posterior draw
    takes its square root."""
    rounded = to_float32(values, what)
    if nonnegative and (rounded < 0).any():
        raise ValueError(f"{what} are negative")
    return rounded


def _float32(flat: np.ndarray, shapes, what: str, nonnegative: bool = False) -> np.ndarray:
    """``flat`` rounded to float32 one array of ``shapes`` at a time
    (`_checked`), so a value float32 cannot hold, or a negative covariance,
    is named by ``what`` and its array's index."""
    return np.concatenate([_checked(a, f"{what} {i} values", nonnegative).ravel()
                           for i, a in enumerate(param_views(flat, shapes))])


def _records(flat: np.ndarray, shapes, what: str, nonnegative: bool = False) -> list[bytes]:
    """One (u32 rows, u32 cols) header plus float32 payload per array."""
    stored = _float32(flat, shapes, what, nonnegative)
    return [struct.pack("<II", *a.shape) + a.tobytes()
            for a in map(np.atleast_2d, param_views(stored, shapes))]


def save_checkpoint(path, model: Checkpoint) -> None:
    """Write ``model``, the mirror of `load_checkpoint`; every value is
    validated before the file opens."""
    params, posterior, metadata = model.params, model.posterior, model.metadata
    chunks = [MODEL_MAGIC, struct.pack("<II", FORMAT_VERSION, len(params.shapes))]
    chunks += _records(params.flat, params.shapes, "parameter array")
    if posterior is not None:
        if not posterior.frozen:
            raise ValueError("only frozen posteriors are checkpointed")
        chunks += [SWAG_MAGIC, struct.pack("<I", posterior.count)]
        for name, flat in (("mean", posterior.mean), ("second moment", posterior.sq_mean),
                           ("covariance", posterior.sigma)):
            chunks += _records(flat, params.shapes, f"posterior {name} array",
                               nonnegative=name == "covariance")
    if metadata is not None:
        blob = json.dumps(metadata, sort_keys=True, allow_nan=False).encode("utf-8")
        chunks += [struct.pack("<I", len(blob)), blob]
    with open(path, "wb") as f:
        f.writelines(chunks)


def _read_vector(r: SizedReader, count: int, what: str, expect=None, nonnegative=False):
    """``count`` consecutive array records as one float64 vector plus their
    stored (rows, cols) shapes; with ``expect``, every stored shape must
    equal the base array's. A non-finite value, or with ``nonnegative`` a
    negative one, is rejected, naming its array."""
    shapes, payloads = [], []
    for i in range(count):
        shape = struct.unpack("<II", r.take(8, f"{what} array {i} header"))
        if expect is not None and shape != expect[i]:
            raise ValueError(f"{what} array {i} has shape {shape}, base array is {expect[i]}")
        payload = np.frombuffer(r.take(4 * shape[0] * shape[1], f"{what} array {i}"), dtype="<f4")
        payloads.append(_checked(payload, f"{what} array {i} values", nonnegative))
        shapes.append(shape)
    return np.concatenate(payloads).astype(np.float64), shapes


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint. Raises ValueError naming the section at fault
    (header, base array i, posterior group array i, metadata trailer, a
    disalign calibration field) for a truncated or malformed file, for a
    non-finite array value, for a negative covariance value, and for any
    bytes after the trailer."""
    with open(path, "rb") as f:
        r = SizedReader(f, "checkpoint")
        magic = r.take(8, "magic")
        if magic != MODEL_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        version, count = struct.unpack("<II", r.take(8, "header"))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        if count < 4 or count % 2 != 0:
            raise ValueError(f"checkpoint has {count} arrays; expected even count >= 4")
        flat, stored = _read_vector(r, count, "base")
        # biases are stored as 1 x n rows
        params = ModelParams.from_flat(
            flat, [s if i % 2 == 0 else (s[0] * s[1],) for i, s in enumerate(stored)]
        )

        posterior = None
        if r.peek(8) == SWAG_MAGIC:
            r.take(8, "posterior magic")
            (n,) = struct.unpack("<I", r.take(4, "posterior capture count"))
            groups = [_read_vector(r, count, f"posterior {name}", expect=stored,
                                   nonnegative=name == "covariance")[0]
                      for name in ("mean", "second moment", "covariance")]
            posterior = SwagPosterior(groups[0], groups[1], n, params.shapes, groups[2])

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
    ckpt = Checkpoint(params, posterior, metadata)
    ckpt.calibration()  # a malformed calibration fails here, before any work
    return ckpt


def config_hash(config_text: str) -> str:
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()
