"""Training objectives: InfoNCE with in-batch negatives, CoSENT, next-token CE.

InfoNCE scores B queries against one passage batch of B·(1+K) rows, laid
out as the trainer embeds it: rows 0..B-1 are the positives, and row
B + i·K + j is query i's j-th explicit negative.  For query i the softmax
candidates over cosine/temperature logits are {own positive} + {all other
in-batch positives} + {its own K negatives}; the positive sits inside the
denominator, so the loss is non-negative and is exactly 0 for a single pair
with no negatives.

CoSENT sums exp((cos_low - cos_high) / tau) over every pair of examples
whose ground-truth similarity labels are strictly ordered, inside
log(1 + .); ties contribute nothing, so a batch with all-equal labels
scores exactly 0.  The log is ``log1p``: a batch whose ordered pairs are all
far apart still scores above 0, where ``log(1 + total)`` would round to 0.

Each loss is one function: it checks its inputs, then calls its fused
autograd node with a hand-written backward (``info_nce_loss``,
``cosent_loss``, ``lm_head_ce``), which checks none.  This module
is the one place that knows what a valid loss input is.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor


def _check_normalized(name: str, data: np.ndarray, atol: float = 1e-6):
    norms = np.sqrt((data * data).sum(axis=-1))
    if not (np.abs(norms - 1.0) <= atol).all():
        raise ValueError(f"{name} embeddings must be L2-normalized (worst norm {norms.flat[np.abs(norms - 1.0).argmax()]})")


def info_nce_with_scores(queries, passages,
                         temperature: float = 0.05) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """InfoNCE of (B, D) queries against their (B·(1+K), D) passages: B positives,
    then each query's K negatives; also the (B,) positive and (B, K) negative cosines it used."""
    q, p = ag.as_tensor(queries), ag.as_tensor(passages)
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if q.ndim != 2 or q.shape[0] < 1:
        raise ValueError(f"queries must be a non-empty (B, D) matrix, got {q.shape}")
    if p.ndim != 2 or p.shape[1] != q.shape[1] or p.shape[0] < q.shape[0] or p.shape[0] % q.shape[0]:
        raise ValueError(f"passages shape {p.shape} is not (B·(1+K), D) for queries {q.shape}")
    _check_normalized("query", q.data)
    _check_normalized("passage", p.data)
    return ag.info_nce_loss(q, p, temperature)


def cosent(cosines, labels, tau: float = 0.05) -> Tensor:
    """CoSENT of (P,) per-pair cosines against their ordinal ground-truth similarity labels."""
    c = ag.as_tensor(cosines)
    labels = np.asarray(labels, dtype=np.float64)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if c.ndim != 1 or c.shape[0] < 1:
        raise ValueError(f"cosines must be a non-empty vector, got shape {c.shape}")
    if labels.shape != c.shape:
        raise ValueError(f"labels shape {labels.shape} does not match cosines {c.shape}")
    if not np.isfinite(labels).all():
        raise ValueError(f"labels must be finite, got {labels[~np.isfinite(labels)][0]}")
    if not (np.abs(c.data) <= 1.0 + 1e-9).all():     # NaN too
        raise ValueError("cosines must lie in [-1, 1]")
    return ag.cosent_loss(c, labels, tau)


def next_token_ce(states, table, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of the tied-embedding logits ``states @ table.T`` of (..., D)
    states and a (V, D) table against shifted-by-one target ids of shape (...)."""
    s, t = ag.as_tensor(states), ag.as_tensor(table)
    targets = np.asarray(targets, dtype=np.intp)
    if s.ndim < 2:
        raise ValueError(f"states must be (..., positions, width), got {s.shape}")
    if t.ndim != 2 or t.shape[1] != s.shape[-1]:
        raise ValueError(f"table shape {t.shape} is not (vocab, {s.shape[-1]}) for states {s.shape}")
    if targets.shape != s.shape[:-1]:
        raise ValueError(f"targets shape {targets.shape} does not match positions {s.shape[:-1]}")
    if targets.size and (targets.min() < 0 or targets.max() >= t.shape[0]):
        raise ValueError(f"target id out of range for vocab {t.shape[0]}")
    return ag.lm_head_ce(s, t, targets)
