"""Attention masks and the schedules that interpolate causal -> bidirectional.

The scheduled ("soft") mask keeps the lower triangle at 1 and grows each
upper-triangular entry of row i (1-indexed) as min(alpha(t) * l / i, 1),
so earlier rows saturate first and the matrix rank decays from N (pure
causal) to 1 (all-ones) over the course of a stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEDULE_KINDS = ("linear", "accelerating", "decelerating")


@dataclass(frozen=True)
class ScheduleState:
    """Progress of a mask schedule: step t out of tau_steps total."""

    kind: str
    t: int
    tau_steps: int

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}")
        if self.tau_steps <= 0:
            raise ValueError("tau_steps must be positive")
        if not 0 <= self.t <= self.tau_steps:
            raise ValueError(f"step t={self.t} outside [0, {self.tau_steps}]")


def schedule_alpha(state: ScheduleState) -> float:
    """Interpolation weight in [0, 1]; 0 at t=0 and 1 at t=tau for every kind."""
    r = state.t / state.tau_steps
    if state.kind == "linear":
        a = r
    elif state.kind == "accelerating":
        a = r * r
    else:  # decelerating
        a = 1.0 - (1.0 - r) ** 2
    return min(max(a, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class AttentionMask:
    """N x N weight matrix in [0, 1] with 1s on and below the diagonal."""

    n: int
    l: int
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (self.n, self.n):
            raise ValueError(f"entries shape {self.entries.shape} does not match n={self.n}")
        if not np.isfinite(self.entries).all():
            raise ValueError("mask entries must be finite")
        if self.entries.min() < 0.0 or self.entries.max() > 1.0:
            raise ValueError("mask entries must lie in [0, 1]")
        lower = np.tril(self.entries)
        if not np.array_equal(lower, np.tril(np.ones((self.n, self.n)))):
            raise ValueError("entries on and below the diagonal must equal 1")


def causal_mask(n: int) -> AttentionMask:
    if n < 1:
        raise ValueError("mask size must be >= 1")
    return AttentionMask(n=n, l=n, entries=np.tril(np.ones((n, n))))


def bidirectional_mask(n: int) -> AttentionMask:
    if n < 1:
        raise ValueError("mask size must be >= 1")
    return AttentionMask(n=n, l=n, entries=np.ones((n, n)))


def build_soft_mask(state: ScheduleState, n: int, l: int | None = None) -> AttentionMask:
    """Scheduled mask: rows/columns are 1-indexed, entry(i,j) = min(alpha*l/i, 1) for i < j.

    ``l`` defaults to the sequence length ``n``.
    """
    if n < 1:
        raise ValueError("mask size must be >= 1")
    l = n if l is None else l
    if l < 1:
        raise ValueError("length parameter l must be >= 1")
    alpha = schedule_alpha(state)
    i = np.arange(1, n + 1, dtype=np.float64)[:, None]
    j = np.arange(1, n + 1, dtype=np.float64)[None, :]
    upper_vals = np.minimum(alpha * l / i, 1.0)
    entries = np.where(j > i, upper_vals, 1.0)
    return AttentionMask(n=n, l=l, entries=entries)


def mask_numerical_rank(mask, eps: float = 1e-8) -> int:
    """Count of singular values above eps * sigma_max."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = mask.entries if isinstance(mask, AttentionMask) else np.asarray(mask, dtype=np.float64)
    if not np.isfinite(m).all():
        raise ValueError("mask entries must be finite")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int((sv > eps * sv[0]).sum())


def rank_trajectory(kind: str, n: int, samples: int = 9, l: int | None = None,
                    eps: float = 1e-8) -> list[tuple[float, int]]:
    """(t/tau, rank) pairs at evenly spaced schedule positions."""
    if samples < 2:
        raise ValueError("need at least the two endpoint samples")
    tau = samples - 1
    out = []
    for t in range(samples):
        state = ScheduleState(kind=kind, t=t, tau_steps=tau)
        rank = mask_numerical_rank(build_soft_mask(state, n, l), eps)
        out.append((t / tau, rank))
    return out
