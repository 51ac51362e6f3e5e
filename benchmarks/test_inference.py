"""Inference layer benchmarks: the fused ``attention`` and ``rmsnorm`` ops and ``embed_texts``.

Shapes follow the default encoder (8 query heads, 2 key/value heads, head
width 8): 128 rows of 8 keys is a toy evaluation group, 32 rows of 16 keys a
toy lm batch, and 32 rows of 24 keys about one row block of the 24-token
corpus that the mining-eval benchmark embeds.  32 rows of 8 keys, forward
and backward, is a weak-contrastive training batch; 256 texts of 8 tokens
is the toy-pipeline benchmark's corpus.
"""

import numpy as np
import pytest

from embedkit import autograd as ag
from embedkit.encoder import Encoder, EncoderConfig
from embedkit.masks import build_soft_mask
from embedkit.pipeline import embed_texts
from embedkit.tokenizer import Tokenizer

CFG = EncoderConfig()


@pytest.mark.parametrize("rows,length", [(128, 8), (32, 16), (32, 24)])
def test_attention_forward(benchmark, rows, length):
    rng = np.random.default_rng(0)
    dh = CFG.hidden_dim // CFG.heads
    q = ag.Tensor(rng.normal(size=(rows, length, CFG.heads * dh)))
    k, v = (ag.Tensor(a) for a in rng.normal(size=(2, rows, length, CFG.kv_heads * dh)))
    w = build_soft_mask(length, 1.0)
    with ag.no_grad():
        out = benchmark(ag.attention, q, k, v, w, CFG.heads)
    assert out.shape == q.shape


def test_attention_forward_backward_32_rows_of_8(benchmark):
    rng = np.random.default_rng(0)
    dh = CFG.hidden_dim // CFG.heads
    q0 = rng.normal(size=(32, 8, CFG.heads * dh))
    k0, v0 = rng.normal(size=(2, 32, 8, CFG.kv_heads * dh))
    g = rng.normal(size=q0.shape)
    w = build_soft_mask(8, 1.0)

    def step():
        q, k, v = (ag.Tensor(a, requires_grad=True) for a in (q0, k0, v0))
        out = ag.attention(q, k, v, w, CFG.heads)
        out._backward(g)
        return q.grad

    assert benchmark(step).shape == q0.shape


def test_rmsnorm_without_tape(benchmark):
    rng = np.random.default_rng(2)
    x = ag.Tensor(rng.normal(size=(128, 8, CFG.hidden_dim)))
    gain = ag.Tensor(rng.normal(size=CFG.hidden_dim))
    with ag.no_grad():
        out = benchmark(ag.rmsnorm, x, gain)
    assert out.shape == x.shape


def _embed(benchmark, count, length):
    words = [f"w{i}" for i in range(200)]
    rng = np.random.default_rng(1)
    texts = [" ".join(rng.choice(words, length)) for _ in range(count)]
    encoder = Encoder(CFG, seed=0)
    emb = benchmark(embed_texts, encoder, Tokenizer(words, CFG.vocab_size), texts)
    assert emb.shape == (count, CFG.hidden_dim)


def test_embed_texts_512_texts_of_24_tokens(benchmark):
    _embed(benchmark, 512, 24)


def test_embed_texts_256_texts_of_8_tokens(benchmark):
    _embed(benchmark, 256, 8)
