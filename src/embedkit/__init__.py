"""Desk-scale contrastive embedding trainer.

Trains small transformer encoders as sentence embedders through a
four-stage pipeline (token-level pretraining, pair SFT, weakly-supervised
contrastive training under a scheduled attention mask, supervised
multi-task fine-tuning with dynamic hard negative mining), with
cross-lingual pair generation, Matryoshka truncated-dimension
embeddings, and an exact retrieval/STS evaluation harness.

Importing the package sets glibc's malloc thresholds for the whole process
(see ``_keep_heap_warm``); elsewhere that is a no-op.
"""

import ctypes
import json

__version__ = "0.1.0"


def _dumps(obj) -> str:
    """The one JSON-line encoding of the datasets, logs and records embedkit writes."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


# (mallopt parameter from glibc's malloc.h, value).  Blocks under 32 MiB come
# from the heap rather than from fresh mmaps, and the heap keeps up to 32 MiB
# of free space at its top, enough to hold any one such block once freed.
_MALLOC_POLICY = (
    (-3, 32 << 20),     # M_MMAP_THRESHOLD (glibc's ceiling on 64-bit)
    (-1, 32 << 20),     # M_TRIM_THRESHOLD
)


def _keep_heap_warm() -> bool:
    """Keep a training step's freed buffers in the heap for the next step.

    glibc's mmap threshold is dynamic: on toy shapes it settles near the
    2 MiB logits buffers, and the trim threshold (twice it) then hands each
    step's freed working set back to the kernel, so the next step faults
    in ~7 MB of fresh pages.  Fixed, larger thresholds stop that; no
    computed value changes.  Returns True when every ``mallopt`` call took,
    False where the C library or its ``mallopt`` is missing (non-glibc).
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in _MALLOC_POLICY])


_keep_heap_warm()
