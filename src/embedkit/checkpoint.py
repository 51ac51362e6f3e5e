"""Versioned binary checkpoints: JSON header + raw little-endian float64 buffers.

Layout:

    bytes 0..3    magic b"EMKP"
    bytes 4..7    format version (uint32, little-endian)
    bytes 8..15   header length in bytes (uint64, little-endian)
    header        UTF-8 JSON: {"config": ..., "extra": ..., "arrays": [{"name", "shape"}, ...]}
    buffers       one per header entry, in listed order, row-major float64

The header's array list is name-sorted and JSON keys are sorted, so a
given (config, arrays, extra) always serializes to identical bytes.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"EMKP"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, config: dict, arrays: dict[str, np.ndarray], extra: dict | None = None):
    """Write ``path`` atomically: a temporary file beside it is fsynced, then renamed onto it.

    A write that fails part-way leaves any previous checkpoint at ``path`` intact.
    """
    entries = [{"name": k, "shape": list(np.asarray(arrays[k]).shape)} for k in sorted(arrays)]
    header = json.dumps({"config": config, "extra": extra or {}, "arrays": entries},
                        sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for e in entries:
                fh.write(np.ascontiguousarray(arrays[e["name"]], dtype="<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint {path} does not exist")
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != VERSION:
            raise CheckpointError(f"checkpoint version {version} unsupported (expected {VERSION})")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        arrays = {}
        for e in header["arrays"]:
            shape = tuple(e["shape"])
            n = int(np.prod(shape)) if shape else 1
            buf = fh.read(8 * n)
            if len(buf) != 8 * n:
                raise CheckpointError(f"{path} truncated while reading array {e['name']!r}")
            arrays[e["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(np.float64)
    return header["config"], arrays, header["extra"]


def require_matching_config(expected: dict, found: dict, path=""):
    if expected != found:
        raise CheckpointError(
            "checkpoint config mismatch"
            + (f" in {path}" if path else "")
            + f"\n  expected: {json.dumps(expected, sort_keys=True)}"
            + f"\n  found:    {json.dumps(found, sort_keys=True)}"
        )
