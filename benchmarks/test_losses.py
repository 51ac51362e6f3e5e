"""Loss-head layer benchmarks: forward and backward of the fused InfoNCE and
CoSENT nodes, called through ``embedkit.losses`` as the trainer calls them.

Shapes follow the default toy manifest at its full width of 64: a
weak-contrastive batch is 32 pairs with in-batch negatives only, a
supervised triplet batch is 4 queries with 7 negatives each, and an STS
batch is 32 scored pairs.
"""

import numpy as np

from embedkit import autograd as ag
from embedkit.losses import ContrastiveBatch, StsBatch, cosent, info_nce_with_scores

DIM = 64


def _unit(rng, *shape):
    x = rng.normal(size=shape + (DIM,))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _info_nce_step(q, p, n):
    leaves = [None if a is None else ag.Tensor(a, requires_grad=True) for a in (q, p, n)]
    loss, _, _ = info_nce_with_scores(ContrastiveBatch(*leaves, temperature=0.05))
    ag.backward(loss)
    return leaves[0].grad


def test_info_nce_weak_32_pairs(benchmark):
    rng = np.random.default_rng(0)
    grad = benchmark(_info_nce_step, _unit(rng, 32), _unit(rng, 32), None)
    assert grad.shape == (32, DIM)


def test_info_nce_supervised_4_queries_7_negatives(benchmark):
    rng = np.random.default_rng(1)
    grad = benchmark(_info_nce_step, _unit(rng, 4), _unit(rng, 4), _unit(rng, 4, 7))
    assert grad.shape == (4, DIM)


def _cosent_step(cos, labels):
    t = ag.Tensor(cos, requires_grad=True)
    ag.backward(cosent(StsBatch(t, labels, tau=0.05)))
    return t.grad


def test_cosent_32_pairs(benchmark):
    rng = np.random.default_rng(2)
    cos = (_unit(rng, 32) * _unit(rng, 32)).sum(axis=-1)
    labels = rng.integers(0, 3, size=32).astype(float)
    grad = benchmark(_cosent_step, cos, labels)
    assert grad.shape == (32,)
