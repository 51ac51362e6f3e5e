"""Training-step benchmarks: one lm step, its GEMM floor and its tracked ``rmsnorm``.

The step is what the lm-pretrain stage runs: the default encoder's forward
over a batch of 32 rows of 16 tokens under the causal mask, the tied-embedding
logits, the token cross-entropy, ``backward`` and ``AdamW.step``.  The floor
is the same step's 13 two-D forward GEMMs (q, k, v, o, w1, w2 in each of the
two layers, then the logits) and their 26 backward GEMMs on bare numpy arrays,
with no tape around them; the ratio of step to floor is what the tape,
attention, the norms and the optimizer add.  The ``rmsnorm`` benchmark times
one of those norms, tracked, forward and backward, on the step's (32, 16, 64)
activations.
"""

import numpy as np

from embedkit import autograd as ag
from embedkit.encoder import Encoder, EncoderConfig
from embedkit.losses import next_token_ce
from embedkit.masks import causal_mask
from embedkit.optim import AdamW

CFG = EncoderConfig()
BATCH, LENGTH = 32, 16


def test_lm_step(benchmark):
    encoder = Encoder(CFG, seed=0)
    optimizer = AdamW(encoder.params, 1e-3, 0.001)
    windows = np.random.default_rng(0).integers(0, CFG.vocab_size, size=(BATCH, LENGTH + 1))
    mask = causal_mask(LENGTH)

    def step():
        logits = encoder.lm_logits(encoder.forward_batch(windows[:, :-1], mask))
        loss = next_token_ce(logits, windows[:, 1:])
        ag.backward(loss)
        optimizer.step()
        optimizer.zero_grads()
        return float(loss.data)

    assert np.isfinite(benchmark(step))


def test_rmsnorm_forward_backward_lm_batch(benchmark):
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(BATCH, LENGTH, CFG.hidden_dim))
    gain0 = rng.normal(size=CFG.hidden_dim)
    g = rng.normal(size=x0.shape)

    def step():
        x, gain = (ag.Tensor(a, requires_grad=True) for a in (x0, gain0))
        ag.rmsnorm(x, gain)._backward(g)
        return x.grad

    assert benchmark(step).shape == x0.shape


def _lm_gemm_shapes() -> list[tuple[int, int]]:
    """(in, out) of each forward GEMM of an lm step, in forward order."""
    d, f, kv = CFG.hidden_dim, CFG.ffn_dim, CFG.kv_heads * (CFG.hidden_dim // CFG.heads)
    return [(d, d), (d, kv), (d, kv), (d, d), (d, f), (f, d)] * CFG.layers + [(d, CFG.vocab_size)]


def test_lm_step_gemm_floor(benchmark):
    rng = np.random.default_rng(0)
    rows = BATCH * LENGTH
    operands = [(rng.normal(size=(rows, i)), rng.normal(size=(i, o)), rng.normal(size=(rows, o)))
                for i, o in _lm_gemm_shapes()]

    def gemms():
        outs = [x @ w for x, w, _ in operands]
        for x, w, dy in reversed(operands):
            outs += [dy @ w.T, x.T @ dy]
        return outs

    assert len(benchmark(gemms)) == 39
