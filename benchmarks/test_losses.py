"""Loss-head layer benchmarks: forward and backward of the fused InfoNCE,
CoSENT and lm-head nodes, called through ``embedkit.losses`` as the trainer
calls them.

Shapes follow the default toy manifest at its full width of 64: a
weak-contrastive batch is 32 pairs with in-batch negatives only, a
supervised triplet batch is 4 queries against a passage batch of their 4
positives and 7 negatives each, an STS batch is 32 scored pairs, and an lm
batch is 32 rows of 16 token states against the 512-row tied embedding table.
"""

import numpy as np

from embedkit import autograd as ag
from embedkit.losses import cosent, info_nce_with_scores, next_token_ce

DIM = 64


def _unit(rng, *shape):
    x = rng.normal(size=shape + (DIM,))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _info_nce_step(q, passages):
    leaves = [ag.Tensor(a, requires_grad=True) for a in (q, passages)]
    loss, _, _ = info_nce_with_scores(*leaves, temperature=0.05)
    ag.backward(loss)
    return leaves[0].grad


def test_info_nce_weak_32_pairs(benchmark):
    rng = np.random.default_rng(0)
    grad = benchmark(_info_nce_step, _unit(rng, 32), _unit(rng, 32))
    assert grad.shape == (32, DIM)


def test_info_nce_supervised_4_queries_7_negatives(benchmark):
    rng = np.random.default_rng(1)
    # 4 positives, then 7 negatives for each query: the rows the old layout drew
    grad = benchmark(_info_nce_step, _unit(rng, 4), _unit(rng, 4 * (1 + 7)))
    assert grad.shape == (4, DIM)


def _cosent_step(cos, labels):
    t = ag.Tensor(cos, requires_grad=True)
    ag.backward(cosent(t, labels, tau=0.05))
    return t.grad


def test_cosent_32_pairs(benchmark):
    rng = np.random.default_rng(2)
    cos = (_unit(rng, 32) * _unit(rng, 32)).sum(axis=-1)
    labels = rng.integers(0, 3, size=32).astype(float)
    grad = benchmark(_cosent_step, cos, labels)
    assert grad.shape == (32,)


def test_lm_head_32_rows_of_16(benchmark):
    rng = np.random.default_rng(3)
    states0 = rng.normal(size=(32, 16, DIM))
    table0 = rng.normal(0.0, 0.05, size=(512, DIM))
    targets = rng.integers(0, 512, size=(32, 16))

    def step():
        states, table = (ag.Tensor(a, requires_grad=True) for a in (states0, table0))
        ag.backward(next_token_ce(states, table, targets))
        return table.grad

    assert benchmark(step).shape == table0.shape
