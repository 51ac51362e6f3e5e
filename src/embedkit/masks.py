"""Attention masks and the schedules that interpolate causal -> bidirectional.

The scheduled ("soft") mask keeps the lower triangle at 1 and grows each
upper-triangular entry of row i (1-indexed) as min(alpha * l / i, 1), so
earlier rows saturate first and the matrix rank decays from N (pure
causal, alpha 0) to 1 (all-ones, alpha 1) over the course of a stage.
"""

from __future__ import annotations

import numpy as np

SCHEDULE_KINDS = ("linear", "accelerating", "decelerating")


def schedule_alpha(kind: str, t: int, tau_steps: int) -> float:
    """Interpolation weight in [0, 1] at step t of tau_steps; 0 at t=0 and 1 at t=tau for every kind."""
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}; expected one of {SCHEDULE_KINDS}")
    if tau_steps <= 0:
        raise ValueError("tau_steps must be positive")
    if not 0 <= t <= tau_steps:
        raise ValueError(f"step t={t} outside [0, {tau_steps}]")
    r = t / tau_steps
    if kind == "linear":
        a = r
    elif kind == "accelerating":
        a = r * r
    else:  # decelerating
        a = 1.0 - (1.0 - r) ** 2
    return min(max(a, 0.0), 1.0)


def build_soft_mask(n: int, alpha: float, l: int | None = None) -> np.ndarray:
    """(n, n) mask weights: rows/columns are 1-indexed, entry(i,j) = min(alpha*l/i, 1) for i < j.

    ``l`` defaults to the sequence length ``n``, so alpha 0 gives the causal
    mask and alpha 1 the all-ones (bidirectional) one.
    """
    if n < 1:
        raise ValueError("mask size must be >= 1")
    l = n if l is None else l
    if l < 1:
        raise ValueError("length parameter l must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mask alpha {alpha} outside [0, 1]")
    i = np.arange(1, n + 1, dtype=np.float64)[:, None]
    j = np.arange(1, n + 1, dtype=np.float64)[None, :]
    return np.where(j > i, np.minimum(alpha * l / i, 1.0), 1.0)


def mask_numerical_rank(mask: np.ndarray, eps: float = 1e-8) -> int:
    """Count of singular values above eps * sigma_max."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = np.asarray(mask, dtype=np.float64)
    if not np.isfinite(m).all():
        raise ValueError("mask entries must be finite")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int((sv > eps * sv[0]).sum())


def rank_trajectory(kind: str, n: int, samples: int = 9,
                    eps: float = 1e-8) -> list[tuple[float, int]]:
    """(t/tau, rank) pairs at evenly spaced schedule positions."""
    if samples < 2:
        raise ValueError("need at least the two endpoint samples")
    tau = samples - 1
    return [(t / tau, mask_numerical_rank(build_soft_mask(n, schedule_alpha(kind, t, tau)), eps))
            for t in range(samples)]
