"""Versioned binary checkpoints: JSON header, raw little-endian float64 buffers, JSON state.

Layout (version 2):

    bytes 0..3    magic b"EMKP"
    bytes 4..7    format version (uint32, little-endian)
    bytes 8..15   header length in bytes (uint64, little-endian)
    header        UTF-8 JSON: {"config": ..., "extra": ..., "arrays": [{"name", "shape"}, ...],
                  "state_bytes": n}
    buffers       one per header entry, in listed order, row-major float64
    state         n bytes of UTF-8 JSON: training-resume state too large for the header

The header's array list is name-sorted and JSON keys are sorted, so a
given (config, arrays, extra, state) always serializes to identical bytes.

Two readers share one parser.  ``load_checkpoint`` (resume) reads
everything and returns ``extra`` with the state's keys merged in.
``load_weights`` (evaluation, adopting weights) parses the header, reads
only the ``model.*`` buffers, seeks past the others and never reads the
state.  Both first check the file's size against the size the header
implies, so a torn file is refused by either.  A version-1 file (no state
section; everything in the header's ``extra``) reads as a version-2 file
whose state is empty.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"EMKP"
VERSION = 2
_PREFIX = struct.Struct("<4sIQ")      # magic, version, header length


class CheckpointError(ValueError):
    pass


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, config: dict, arrays: dict[str, np.ndarray], extra: dict | None = None,
                    state: dict | None = None):
    """Write ``path`` atomically: a temporary file beside it is fsynced, then renamed onto it.

    ``state`` goes after the buffers, where only a full read parses it and
    merges its keys into ``extra``.  A write that fails part-way leaves any
    previous checkpoint at ``path`` intact.
    """
    state_bytes = _json_bytes(state) if state else b""
    entries = [{"name": k, "shape": list(np.asarray(arrays[k]).shape)} for k in sorted(arrays)]
    header = _json_bytes({"config": config, "extra": extra or {}, "arrays": entries,
                          "state_bytes": len(state_bytes)})
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_PREFIX.pack(MAGIC, VERSION, len(header)))
            fh.write(header)
            for e in entries:
                fh.write(np.ascontiguousarray(arrays[e["name"]], dtype="<f8").tobytes())
            fh.write(state_bytes)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        if version not in (1, VERSION):
            raise CheckpointError(f"{path}: checkpoint version {version} unsupported "
                                  f"(expected 1 or {VERSION})")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path} has an unreadable header (torn file?): {exc}") from exc
        shapes = [tuple(e["shape"]) for e in header["arrays"]]
        nbytes = [8 * math.prod(s) for s in shapes]
        state_len = header.get("state_bytes", 0)
        expected = _PREFIX.size + hlen + sum(nbytes) + state_len
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
        extra = header["extra"]
        if state_len and not weights_only:
            try:
                extra = {**extra, **json.loads(fh.read(state_len).decode("utf-8"))}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CheckpointError(f"{path} has a corrupt training-state section: {exc}") from exc
    return header["config"], arrays, extra


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    """Everything: config, every array, and ``extra`` with the training state merged in."""
    return _read(path, weights_only=False)


def load_weights(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    """Config, the ``model.*`` arrays and the header's ``extra``; no optimizer moments or state."""
    return _read(path, weights_only=True)


def require_matching_config(expected: dict, found: dict, path=""):
    if expected != found:
        raise CheckpointError(
            "checkpoint config mismatch"
            + (f" in {path}" if path else "")
            + f"\n  expected: {json.dumps(expected, sort_keys=True)}"
            + f"\n  found:    {json.dumps(found, sort_keys=True)}"
        )
