"""Inference layer benchmarks: the fused ``attention`` forward and ``embed_texts``.

Shapes follow the default encoder (8 query heads, 2 key/value heads, head
width 8): 128 rows of 8 keys is a toy evaluation group, 32 rows of 16 keys a
toy lm batch, and 32 rows of 24 keys about one row block of the 24-token
corpus that the mining-eval benchmark embeds.
"""

import numpy as np
import pytest

from embedkit import autograd as ag
from embedkit.encoder import Encoder, EncoderConfig
from embedkit.masks import bidirectional_mask
from embedkit.pipeline import embed_texts
from embedkit.tokenizer import Tokenizer

CFG = EncoderConfig()


@pytest.mark.parametrize("rows,length", [(128, 8), (32, 16), (32, 24)])
def test_attention_forward(benchmark, rows, length):
    rng = np.random.default_rng(0)
    dh = CFG.hidden_dim // CFG.heads
    q = ag.Tensor(rng.normal(size=(rows, length, CFG.heads * dh)))
    k, v = (ag.Tensor(a) for a in rng.normal(size=(2, rows, length, CFG.kv_heads * dh)))
    w = bidirectional_mask(length).entries
    with ag.no_grad():
        out = benchmark(ag.attention, q, k, v, w, CFG.heads)
    assert out.shape == q.shape


def test_embed_texts_512_texts_of_24_tokens(benchmark):
    words = [f"w{i}" for i in range(200)]
    rng = np.random.default_rng(1)
    texts = [" ".join(rng.choice(words, 24)) for _ in range(512)]
    encoder = Encoder(CFG, seed=0)
    emb = benchmark(embed_texts, encoder, Tokenizer(words, CFG.vocab_size), texts)
    assert emb.shape == (512, CFG.hidden_dim)
