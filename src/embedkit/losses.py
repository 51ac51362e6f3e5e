"""Training objectives: InfoNCE with in-batch negatives, CoSENT, next-token CE.

InfoNCE treats, for each query i, the set {own positive} + {all other
in-batch positives} + {row-i explicit negatives} as softmax candidates
over cosine/temperature logits; the positive sits inside the denominator,
so the loss is non-negative and is exactly 0 for a single pair with no
negatives.

CoSENT sums exp((cos_low - cos_high) / tau) over every pair of examples
whose ground-truth similarity labels are strictly ordered, inside
log(1 + .); ties contribute nothing, so a batch with all-equal labels
scores exactly 0.  The log is ``log1p``: a batch whose ordered pairs are all
far apart still scores above 0, where ``log(1 + total)`` would round to 0.

Each loss is one autograd node with a hand-written backward (``info_nce_loss``,
``cosent_loss``, ``cross_entropy_lastdim``); this module validates their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autograd as ag
from .autograd import Tensor


def _check_normalized(name: str, data: np.ndarray, atol: float = 1e-6):
    norms = np.sqrt((data * data).sum(axis=-1))
    if not (np.abs(norms - 1.0) <= atol).all():
        raise ValueError(f"{name} embeddings must be L2-normalized (worst norm {norms.flat[np.abs(norms - 1.0).argmax()]})")


@dataclass
class ContrastiveBatch:
    """Queries (B, D), positives (B, D), optional explicit negatives (B, K, D)."""

    queries: Tensor
    positives: Tensor
    negatives: Optional[Tensor] = None
    temperature: float = 0.05

    def __post_init__(self):
        self.queries = ag.as_tensor(self.queries)
        self.positives = ag.as_tensor(self.positives)
        if self.negatives is not None:
            self.negatives = ag.as_tensor(self.negatives)
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        q, p = self.queries, self.positives
        if q.ndim != 2 or q.shape[0] < 1:
            raise ValueError(f"queries must be a non-empty (B, D) matrix, got {q.shape}")
        if p.shape != q.shape:
            raise ValueError(f"positives shape {p.shape} does not match queries {q.shape}")
        if self.negatives is not None:
            n = self.negatives
            if n.ndim != 3 or n.shape[0] != q.shape[0] or n.shape[2] != q.shape[1]:
                raise ValueError(f"negatives shape {n.shape} incompatible with queries {q.shape}")
        _check_normalized("query", q.data)
        _check_normalized("positive", p.data)
        if self.negatives is not None:
            _check_normalized("negative", self.negatives.data)


def info_nce(batch: ContrastiveBatch) -> Tensor:
    loss, _, _ = info_nce_with_scores(batch)
    return loss


def info_nce_with_scores(batch: ContrastiveBatch) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """InfoNCE loss plus the (B,) positive and (B, K) negative cosines it used."""
    return ag.info_nce_loss(batch.queries, batch.positives, batch.negatives, batch.temperature)


@dataclass
class StsBatch:
    """Per-pair cosine scores with ordinal ground-truth similarity labels."""

    cosines: Tensor
    labels: np.ndarray
    tau: float = 0.05

    def __post_init__(self):
        self.cosines = ag.as_tensor(self.cosines)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.cosines.ndim != 1 or self.cosines.shape[0] < 1:
            raise ValueError(f"cosines must be a non-empty vector, got shape {self.cosines.shape}")
        if self.labels.shape != self.cosines.shape:
            raise ValueError(f"labels shape {self.labels.shape} does not match cosines {self.cosines.shape}")
        if np.abs(self.cosines.data).max() > 1.0 + 1e-9:
            raise ValueError("cosines must lie in [-1, 1]")


def cosent(batch: StsBatch) -> Tensor:
    return ag.cosent_loss(batch.cosines, batch.labels, batch.tau)


def next_token_ce(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of (L, V) logits against shifted-by-one target ids."""
    logits = ag.as_tensor(logits)
    targets = np.asarray(targets, dtype=np.intp)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (positions, vocab), got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ValueError(f"targets shape {targets.shape} does not match positions {logits.shape[0]}")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise ValueError(f"target id out of range for vocab {logits.shape[1]}")
    return ag.cross_entropy_lastdim(logits, targets)
