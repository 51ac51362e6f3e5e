"""Training-step benchmarks: one lm step, its GEMM floor, and its tracked ``rmsnorm``
and causal ``attention``; one weak-contrastive and one supervised triplet step;
``AdamW.step`` alone.

The lm step is what the lm-pretrain stage runs: the default encoder's forward
over a batch of 32 rows of 16 tokens under the causal mask, the fused
tied-embedding logits and token cross-entropy, ``backward`` and
``AdamW.step``.  The floor is the same step's 13 two-D forward GEMMs (q, k, v,
o, w1, w2 in each of the two layers, then the logits) and their 26 backward
GEMMs on bare numpy arrays, with no tape around them; the ratio of step to
floor is what the tape, attention, the norms and the optimizer add.  The
``rmsnorm`` and ``attention`` benchmarks time one of those ops, tracked,
forward and backward, on the step's (32, 16, 64) activations.

The three steps run through ``Trainer``'s own step methods at the default toy
manifest's shapes, on a synthetic corpus written as ``scripts/make_toy_data.py``
writes it: 32 windows of 16 tokens, 32 pairs under the scheduled mask half
way through the weak-contrastive stage, and 4 retrieval queries with 7
negatives each, MRL over (16, 32, 64), without mining.  Each is the step's
forward, ``backward`` and ``AdamW.step`` on the same batch every round.  The
``AdamW.step`` benchmark updates the default encoder's 18 parameters from
fixed gradients.
"""

import tempfile
from pathlib import Path

import numpy as np

from embedkit import autograd as ag
from embedkit.data import build_triplets, synth_corpus, write_dataset, write_text_dataset
from embedkit.encoder import Encoder, EncoderConfig
from embedkit.masks import build_soft_mask
from embedkit.optim import AdamW
from embedkit.pipeline import RunManifest, StageConfig, Trainer

CFG = EncoderConfig()
BATCH, LENGTH = 32, 16


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


def test_attention_forward_backward_lm_batch(benchmark):
    rng = np.random.default_rng(4)
    dh = CFG.hidden_dim // CFG.heads
    q0 = rng.normal(size=(BATCH, LENGTH, CFG.heads * dh))
    k0, v0 = rng.normal(size=(2, BATCH, LENGTH, CFG.kv_heads * dh))
    g = rng.normal(size=q0.shape)
    w = build_soft_mask(LENGTH, 0.0)

    def step():
        q, k, v = (ag.Tensor(a, requires_grad=True) for a in (q0, k0, v0))
        ag.attention(q, k, v, w, CFG.heads)._backward(g)
        return q.grad

    assert benchmark(step).shape == q0.shape


def test_adamw_step_default_encoder(benchmark):
    encoder = Encoder(CFG, seed=0)
    rng = np.random.default_rng(5)
    for p in encoder.params.values():
        p.grad = rng.normal(size=p.shape)
    optimizer = AdamW(encoder.params, 1e-3, 0.001)
    benchmark(optimizer.step)
    assert optimizer.step_count >= 1


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


def _trainer_step(benchmark, stage: StageConfig, step: int):
    """Time ``Trainer._loss`` at ``step`` of ``stage``, then ``backward`` and ``AdamW.step``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus = synth_corpus(16, 8, languages=("aa", "bb"), seed=0)
        write_text_dataset(tmp / "lm.jsonl", [s["text"] for s in corpus.sentences])
        write_dataset(tmp / "pairs.jsonl", "pair", corpus.pairs, languages=corpus.languages)
        write_dataset(tmp / "retrieval.jsonl", "retrieval",
                      build_triplets(corpus, lang="aa", pool_size=16, seed=1), languages=("aa",))
        data = {"lm-pretrain": str(tmp / "lm.jsonl"), "weak-contrastive": str(tmp / "pairs.jsonl"),
                "supervised": {"retrieval": str(tmp / "retrieval.jsonl")}}
        trainer = Trainer(RunManifest(encoder=CFG, stages=[stage], data=data,
                                      output_dir=str(tmp / "run")))
        data = trainer._load_stage_data(stage)
        encoder = Encoder(CFG, seed=0)
        optimizer = AdamW(encoder.params, stage.lr, stage.weight_decay)

        def one_step():
            loss, _ = trainer._loss(stage, encoder, data, np.random.default_rng(step), step, None)
            ag.backward(loss)
            optimizer.step()
            optimizer.zero_grads()
            return float(loss.data)

        assert np.isfinite(benchmark(one_step))


def test_lm_step(benchmark):
    stage = StageConfig(kind="lm-pretrain", steps=500, batch_size=BATCH, window_len=LENGTH, lr=2e-3)
    _trainer_step(benchmark, stage, step=250)


def test_weak_contrastive_step(benchmark):
    stage = StageConfig(kind="weak-contrastive", steps=500, batch_size=32, lr=5e-4,
                        mask_policy="soft", mask_schedule="linear")
    _trainer_step(benchmark, stage, step=250)


def test_supervised_triplet_step(benchmark):
    stage = StageConfig(kind="supervised", steps=1000, lr=1e-3, mrl=True,
                        triplet_batch_size=4, negatives_per_query=7)
    _trainer_step(benchmark, stage, step=0)
