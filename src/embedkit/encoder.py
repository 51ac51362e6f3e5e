"""Small transformer encoder with grouped-query attention and nested-dim embeddings.

The attention mask enters each layer as its weight matrix, passed with
the (B, L, width) q, k and v projections to the fused
``autograd.attention`` op, which splits and merges the heads itself, so a
layer records 12 tape nodes.  The op derives the -inf score offset
from the exact-zero weights itself and applies it before the row softmax,
multiplies the fractional weights onto the resulting probabilities, and
renormalizes each row to sum to one.  With an all-zero upper triangle
this is exactly causal attention; with all-ones weights it is exactly
bidirectional attention; scheduled masks interpolate between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional, Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .masks import AttentionMask
from .tokenizer import PAD_ID


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 2
    hidden_dim: int = 64
    heads: int = 8
    kv_heads: int = 2
    ffn_dim: int = 128
    vocab_size: int = 512
    max_len: int = 64
    pooling: str = "mean"
    mrl_dims: tuple[int, ...] = (16, 32, 64)

    def __post_init__(self):
        if self.heads % self.kv_heads != 0:
            raise ValueError(f"heads ({self.heads}) must be divisible by kv_heads ({self.kv_heads})")
        if self.hidden_dim % self.heads != 0:
            raise ValueError(f"hidden_dim ({self.hidden_dim}) must be divisible by heads ({self.heads})")
        if self.pooling not in ("mean", "last-token"):
            raise ValueError(f"unknown pooling mode {self.pooling!r}")
        dims = tuple(self.mrl_dims)
        if any(d <= 0 or d > self.hidden_dim for d in dims):
            raise ValueError(f"mrl_dims {dims} must lie in [1, hidden_dim={self.hidden_dim}]")
        if any(a >= b for a, b in zip(dims, dims[1:])):
            raise ValueError(f"mrl_dims {dims} must be strictly ascending")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["mrl_dims"] = list(self.mrl_dims)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        d = dict(d)
        d["mrl_dims"] = tuple(d.get("mrl_dims", ()))
        return cls(**d)


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    half = np.arange(0, dim, 2, dtype=np.float64)
    freq = np.exp(-np.log(10_000.0) * half / dim)
    table = np.zeros((max_len, dim))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq[: dim - dim // 2])
    return table


class Encoder:
    """Token ids -> contextual states -> pooled unit-norm sentence embeddings."""

    def __init__(self, cfg: EncoderConfig, seed: int = 0, params: dict[str, np.ndarray] | None = None):
        self.cfg = cfg
        self.positions = sinusoidal_positions(cfg.max_len, cfg.hidden_dim)
        if params is not None:
            self.params = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
            return
        rng = np.random.default_rng(seed)
        d, f = cfg.hidden_dim, cfg.ffn_dim
        kv_dim = cfg.kv_heads * (d // cfg.heads)
        p: dict[str, Tensor] = {}
        p["embed"] = Tensor(rng.normal(0.0, 0.05, (cfg.vocab_size, d)), requires_grad=True)
        for i in range(cfg.layers):
            s = 1.0 / np.sqrt(d)
            p[f"layer{i}.attn_gain"] = Tensor(np.ones(d), requires_grad=True)
            p[f"layer{i}.wq"] = Tensor(rng.normal(0.0, s, (d, d)), requires_grad=True)
            p[f"layer{i}.wk"] = Tensor(rng.normal(0.0, s, (d, kv_dim)), requires_grad=True)
            p[f"layer{i}.wv"] = Tensor(rng.normal(0.0, s, (d, kv_dim)), requires_grad=True)
            p[f"layer{i}.wo"] = Tensor(rng.normal(0.0, s, (d, d)), requires_grad=True)
            p[f"layer{i}.ffn_gain"] = Tensor(np.ones(d), requires_grad=True)
            p[f"layer{i}.w1"] = Tensor(rng.normal(0.0, s, (d, f)), requires_grad=True)
            p[f"layer{i}.w2"] = Tensor(rng.normal(0.0, 1.0 / np.sqrt(f), (f, d)), requires_grad=True)
        if cfg.layers > 0:
            p["final_gain"] = Tensor(np.ones(d), requires_grad=True)
        self.params = p

    # -- persistence ---------------------------------------------------

    def export_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.params.items()}

    # -- forward -------------------------------------------------------

    def _validate_ids(self, ids: np.ndarray):
        if ids.size and (ids.min() < 0 or ids.max() >= self.cfg.vocab_size):
            bad = int(ids.max() if ids.max() >= self.cfg.vocab_size else ids.min())
            raise ValueError(f"unknown token id {bad} for vocab_size {self.cfg.vocab_size}")
        if ids.shape[-1] > self.cfg.max_len:
            raise ValueError(f"sequence length {ids.shape[-1]} exceeds max_len {self.cfg.max_len}")
        if ids.shape[-1] < 1:
            raise ValueError("empty token sequence")

    def _mask_weights(self, mask: AttentionMask, length: int,
                      lengths: Optional[np.ndarray]) -> np.ndarray:
        """(L, L) mask weights, or (B, L, L) with padded keys zeroed when ``lengths`` is given."""
        if mask.n != length:
            raise ValueError(f"mask size {mask.n} does not match sequence length {length}")
        if lengths is None:
            return mask.entries
        pad = np.arange(length) >= np.asarray(lengths)[:, None]           # (B, L)
        w = np.where(pad[:, None, :], 0.0, mask.entries)
        w[pad[:, :, None] & np.eye(length, dtype=bool)] = 1.0             # pad rows self-attend
        return w

    def forward_batch(self, ids: np.ndarray, mask: AttentionMask,
                      lengths: Optional[np.ndarray] = None) -> Tensor:
        """Contextual states (B, L, hidden) for a batch of equal-padded id rows."""
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 2:
            raise ValueError(f"expected (batch, length) ids, got shape {ids.shape}")
        self._validate_ids(ids)
        bsz, length = ids.shape
        cfg = self.cfg

        x = ag.reshape(ag.index_select(self.params["embed"], 0, ids.reshape(-1)), (bsz, length, cfg.hidden_dim))
        x = ag.add(x, self.positions[:length])

        weights = self._mask_weights(mask, length, lengths)

        for i in range(cfg.layers):
            h = ag.rmsnorm(x, self.params[f"layer{i}.attn_gain"])
            q, k, v = (ag.matmul(h, self.params[f"layer{i}.w{n}"]) for n in "qkv")
            ctx = ag.attention(q, k, v, weights, cfg.heads)
            x = ag.add(x, ag.matmul(ctx, self.params[f"layer{i}.wo"]))

            h = ag.rmsnorm(x, self.params[f"layer{i}.ffn_gain"])
            f = ag.matmul(ag.relu(ag.matmul(h, self.params[f"layer{i}.w1"])), self.params[f"layer{i}.w2"])
            x = ag.add(x, f)

        if cfg.layers > 0:
            x = ag.rmsnorm(x, self.params["final_gain"])
        return x

    def embed_batch(self, ids: np.ndarray, mask: AttentionMask,
                    lengths: Optional[np.ndarray] = None) -> Tensor:
        """Pooled unit-norm sentence embeddings (B, hidden), gradient-tracked."""
        return pool_states(self.forward_batch(ids, mask, lengths), self.cfg.pooling, lengths)

    def lm_logits(self, states: Tensor) -> Tensor:
        """Next-token logits via the tied embedding table."""
        return ag.matmul(states, ag.permute(self.params["embed"], (1, 0)))


def pool_states(states: Tensor, mode: str, lengths: Optional[np.ndarray] = None) -> Tensor:
    """Reduce (B, L, D) token states to (B, D) unit-norm sentence vectors."""
    bsz, length, dim = states.shape
    if mode == "mean":
        if lengths is None:
            summed = ag.sum_lastdim(ag.permute(states, (0, 2, 1)))
            pooled = ag.mul(summed, 1.0 / length)
        else:
            valid = (np.arange(length)[None, :] < np.asarray(lengths)[:, None]).astype(np.float64)
            masked = ag.mul(states, valid[:, :, None])
            summed = ag.sum_lastdim(ag.permute(masked, (0, 2, 1)))
            pooled = ag.mul(summed, (1.0 / np.asarray(lengths, dtype=np.float64))[:, None])
    elif mode == "last-token":
        last = (np.asarray(lengths) - 1 if lengths is not None
                else np.full(bsz, length - 1, dtype=np.intp))
        flat = np.arange(bsz) * length + np.asarray(last, dtype=np.intp)
        pooled = ag.index_select(ag.reshape(states, (bsz * length, dim)), 0, flat)
    else:
        raise ValueError(f"unknown pooling mode {mode!r}")
    return ag.l2_normalize(pooled)


def truncate_normalize(embeddings: Tensor, d: int, dims: Sequence[int]) -> Tensor:
    """Tracked prefix truncation + renormalization to one of the nested ``dims``."""
    if d not in tuple(dims):
        raise ValueError(f"target dim {d} not in configured mrl_dims {tuple(dims)}")
    if d > embeddings.shape[-1]:
        raise ValueError(f"target dim {d} exceeds active dim {embeddings.shape[-1]}")
    if d == embeddings.shape[-1]:
        return embeddings
    return ag.l2_normalize(ag.index_select(embeddings, -1, np.arange(d)))


__all__ = [
    "EncoderConfig", "Encoder", "pool_states", "truncate_normalize",
    "sinusoidal_positions", "PAD_ID",
]
