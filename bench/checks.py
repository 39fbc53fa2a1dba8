"""Output checks on the artifacts of one CLI call.

Every artifact must exist and be non-empty; JSON must parse with NaN and
Infinity rejected; CSV tables must parse and hold no non-finite number;
checkpoints must reload through `checkpoint.load_checkpoint` and hold only
finite arrays. Each check returns the file's SHA-256 so callers can compare
the bytes of repeated runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

import ltsrepr.checkpoint as ckpt_io


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON value {token}")


def read_json(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f, parse_constant=_reject_constant)


def _check_csv(path: str, text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError(f"{path}: no data rows")
    for row in rows[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{path}: non-finite value {cell!r}")


def _check_checkpoint(path: str) -> None:
    ckpt = ckpt_io.load_checkpoint(path)
    arrays = ckpt.params.arrays()
    if ckpt.posterior is not None:
        arrays += [ckpt.posterior.mean, ckpt.posterior.sq_mean, ckpt.posterior.sigma]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError(f"{path}: non-finite parameters")


def check_artifact(path: str) -> str:
    """Validate one artifact; return its SHA-256 or raise ValueError."""
    if not os.path.isfile(path):
        raise ValueError(f"{path}: missing")
    with open(path, "rb") as f:
        blob = f.read()
    if not blob:
        raise ValueError(f"{path}: empty")
    ext = os.path.splitext(path)[1]
    if ext == ".json":
        json.loads(blob.decode("utf-8"), parse_constant=_reject_constant)
    elif ext == ".csv":
        _check_csv(path, blob.decode("utf-8"))
    elif ext == ".ckpt":
        _check_checkpoint(path)
    return hashlib.sha256(blob).hexdigest()


def source_digest(src_dir: str) -> str:
    """SHA-256 over the package sources, naming one build of the program."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src_dir).encode("utf-8") + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()
