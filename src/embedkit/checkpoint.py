"""Versioned binary checkpoints: JSON header, then raw little-endian float64 buffers.

Layout (version 3):

    bytes 0..3    magic b"EMKP"
    bytes 4..7    format version (uint32, little-endian)
    bytes 8..15   header length in bytes (uint64, little-endian)
    header        UTF-8 JSON: {"config": ..., "extra": ..., "arrays": [{"name", "shape"}, ...]}
    buffers       one per header entry, in listed (name-sorted) order, row-major float64

JSON keys are sorted, so given (config, arrays, extra) always serialize to
identical bytes.  A training checkpoint holds the weights (``model.*``), the
optimizer moments (``opt.*``) and, in a mining stage, the mining state
(``mining.*``).  ``load_checkpoint`` (resume) reads every buffer;
``load_weights`` (evaluation, adopting weights) reads only the ``model.*``
ones and seeks past the others.  Both refuse a file whose size is not the
one its header implies, so a torn file is refused by either.

Versions 1 and 2 are read, never written, and give only their weights:
``load_weights`` reads them, and ``load_checkpoint`` refuses them, since their
stage must restart.  An older reader refuses version 3 rather than resume without the state.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from . import _dumps

MAGIC = b"EMKP"
VERSION = 3
_PREFIX = struct.Struct("<4sIQ")      # magic, version, header length


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, config: dict, arrays: dict[str, np.ndarray], extra: dict | None = None):
    """Write ``path`` atomically: a temporary file beside it is fsynced, then renamed
    onto it, and the directory is fsynced so that the rename survives a power loss.

    A write that fails part-way leaves any previous checkpoint at ``path`` intact.
    """
    entries = [{"name": k, "shape": list(np.asarray(arrays[k]).shape)} for k in sorted(arrays)]
    header = _dumps({"config": config, "extra": extra or {}, "arrays": entries}).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_PREFIX.pack(MAGIC, VERSION, len(header)))
            fh.write(header)
            for e in entries:
                fh.write(np.ascontiguousarray(arrays[e["name"]], dtype="<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _read(path, weights_only: bool) -> tuple[dict, dict[str, np.ndarray], dict]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint {path} does not exist")
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX.size)
        if prefix[:4] != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
        if len(prefix) < _PREFIX.size:
            raise CheckpointError(f"{path} is truncated: {len(prefix)} bytes")
        _, version, hlen = _PREFIX.unpack(prefix)
        if version not in (1, 2, VERSION):
            raise CheckpointError(f"{path}: checkpoint version {version} unsupported "
                                  f"(expected 1 to {VERSION})")
        if version != VERSION and not weights_only:
            raise CheckpointError(f"cannot resume from {path}: it is a checkpoint version {version} file; "
                                  "eval and init_from still read its weights, but its stage must restart")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path} has an unreadable header (torn file?): {exc}") from exc
        shapes = [tuple(e["shape"]) for e in header["arrays"]]
        nbytes = [8 * math.prod(s) for s in shapes]
        # a version-2 file's mining state follows the buffers
        expected = _PREFIX.size + hlen + sum(nbytes) + header.get("state_bytes", 0)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise CheckpointError(f"{path} is {size} bytes but its header implies {expected} "
                                  "(torn or overwritten file)")
        arrays = {}
        for e, shape, n in zip(header["arrays"], shapes, nbytes):
            if weights_only and not e["name"].startswith("model."):
                fh.seek(n, os.SEEK_CUR)
                continue
            arrays[e["name"]] = np.frombuffer(fh.read(n), dtype="<f8").reshape(shape).astype(np.float64)
    return header["config"], arrays, header["extra"]


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    """Everything of a version-3 file: config, every array, and the header's ``extra``."""
    return _read(path, weights_only=False)


def load_weights(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    """Config, the ``model.*`` arrays and the header's ``extra``; no optimizer moments or mining state."""
    return _read(path, weights_only=True)


def require_matching_config(expected: dict, found: dict, path=""):
    if expected != found:
        raise CheckpointError(
            "checkpoint config mismatch"
            + (f" in {path}" if path else "")
            + f"\n  expected: {json.dumps(expected, sort_keys=True)}"
            + f"\n  found:    {json.dumps(found, sort_keys=True)}"
        )
