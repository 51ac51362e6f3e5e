"""Encoder behavior: causality under the causal mask, grouped-query attention
against a plain multi-head oracle, pooling, nested-dim truncation, and
full-model gradients."""

import dataclasses
import json
import os
import re
import stat
import struct

import numpy as np
import pytest

from embedkit import autograd as ag
from embedkit.autograd import DomainError, Tensor, grad_check
from embedkit.checkpoint import (CheckpointError, load_checkpoint, load_weights, require_matching_config,
                                 save_checkpoint)
from embedkit.encoder import Encoder, EncoderConfig, pool_states, truncate_normalize
from embedkit.losses import cosent, info_nce_with_scores, next_token_ce
from embedkit.masks import build_soft_mask
from embedkit.pipeline import _mean
from test_autograd import _chain_info_nce, _gather, _permute, _reshape, _sum

TOY = EncoderConfig()
SMALL = EncoderConfig(layers=2, hidden_dim=16, heads=4, kv_heads=2, ffn_dim=32,
                      vocab_size=24, max_len=8, mrl_dims=(4, 8, 16))


class TestConfig:
    def test_default_validates(self):
        assert TOY.heads % TOY.kv_heads == 0

    def test_bad_grouping_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(heads=8, kv_heads=3)

    def test_mrl_dims_must_ascend_and_fit(self):
        with pytest.raises(ValueError, match="ascending"):
            EncoderConfig(mrl_dims=(32, 16, 64))
        with pytest.raises(ValueError):
            EncoderConfig(hidden_dim=64, heads=8, kv_heads=2, mrl_dims=(16, 128))

    def test_roundtrip_dict(self):
        assert EncoderConfig.from_dict(TOY.to_dict()) == TOY

    @pytest.mark.parametrize("field,value,what", [
        ("ffn_dim", 0, "an integer >= 1"), ("max_len", 0, "an integer >= 1"),
        ("kv_heads", 0, "an integer >= 1"), ("hidden_dim", 16.0, "an integer >= 1"),
        ("layers", -1, "an integer >= 0"), ("vocab_size", True, "an integer >= 1"),
    ])
    def test_value_out_of_range_refused_where_the_config_is_made(self, field, value, what):
        # refused by the constructor itself, not only as a manifest is read
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must be {what}, not {value!r}')}$"):
            EncoderConfig(**{field: value})


class TestCausality:
    def test_causal_prefix_states_bitwise_invariant(self):
        enc = Encoder(TOY, seed=1)
        ids = np.array([[3, 4, 5, 6, 7, 8, 9, 10]])
        before = enc.forward_batch(ids, 0.0).data
        ids2 = ids.copy()
        ids2[0, 7] = 99
        after = enc.forward_batch(ids2, 0.0).data
        assert before[0, :7].tobytes() == after[0, :7].tobytes()

    def test_bidirectional_first_state_changes(self):
        enc = Encoder(TOY, seed=1)
        ids = np.array([[3, 4, 5, 6, 7, 8, 9, 10]])
        before = enc.forward_batch(ids, 1.0).data
        ids2 = ids.copy()
        ids2[0, 7] = 99
        after = enc.forward_batch(ids2, 1.0).data
        assert not np.array_equal(before[0, 0], after[0, 0])

    def test_zero_layers_is_embed_plus_positions(self):
        cfg = EncoderConfig(layers=0)
        enc = Encoder(cfg, seed=2)
        ids = np.array([[5, 6, 7]])
        states = enc.forward_batch(ids, 0.0).data
        expected = enc.params["embed"].data[ids[0]] + enc.positions[:3]
        np.testing.assert_array_equal(states[0], expected)

    def test_unknown_token_rejected(self):
        enc = Encoder(SMALL, seed=0)
        with pytest.raises(ValueError, match="unknown token id"):
            enc.forward_batch(np.array([[1, 99]]), 0.0)

    def test_oversize_sequence_rejected(self):
        enc = Encoder(SMALL, seed=0)
        with pytest.raises(ValueError, match="max_len"):
            enc.forward_batch(np.ones((1, 9), dtype=int), 0.0)


def _reference_mha_forward(enc: Encoder, ids: np.ndarray) -> np.ndarray:
    """Plain multi-head attention forward written independently of the Tensor ops."""
    cfg = enc.cfg
    d, heads = cfg.hidden_dim, cfg.heads
    dh = d // heads

    def rms(v, g):
        return v / np.sqrt((v * v).mean(-1, keepdims=True)) * g

    x = enc.params["embed"].data[ids[0]] + enc.positions[: ids.shape[1]]
    for i in range(cfg.layers):
        h = rms(x, enc.params[f"layer{i}.attn_gain"].data)
        q = (h @ enc.params[f"layer{i}.wq"].data).reshape(-1, heads, dh).transpose(1, 0, 2)
        k = (h @ enc.params[f"layer{i}.wk"].data).reshape(-1, heads, dh).transpose(1, 0, 2)
        v = (h @ enc.params[f"layer{i}.wv"].data).reshape(-1, heads, dh).transpose(1, 0, 2)
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(dh)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        p = e / e.sum(-1, keepdims=True)
        p = p / p.sum(-1, keepdims=True)
        ctx = (p @ v).transpose(1, 0, 2).reshape(-1, d)
        x = x + ctx @ enc.params[f"layer{i}.wo"].data
        h = rms(x, enc.params[f"layer{i}.ffn_gain"].data)
        x = x + np.maximum(h @ enc.params[f"layer{i}.w1"].data, 0) @ enc.params[f"layer{i}.w2"].data
    return rms(x, enc.params["final_gain"].data)


class TestGroupedQueryAttention:
    def test_kv_equal_heads_matches_mha_oracle(self):
        cfg = EncoderConfig(layers=2, hidden_dim=16, heads=4, kv_heads=4, ffn_dim=8,
                            vocab_size=32, max_len=8, mrl_dims=(8, 16))
        enc = Encoder(cfg, seed=3)
        ids = np.array([[1, 2, 3, 4, 5]])
        ours = enc.forward_batch(ids, 1.0).data[0]
        ref = _reference_mha_forward(enc, ids)
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_forward_bitwise_reproducible(self):
        enc = Encoder(SMALL, seed=4)
        ids = np.array([[2, 3, 4, 5]])
        a = enc.forward_batch(ids, 1.0).data
        b = enc.forward_batch(ids, 1.0).data
        assert a.tobytes() == b.tobytes()

    def test_identity_group_gather_is_bitwise_copy(self):
        # kv_heads == heads makes the head-group gather an identity: values
        # pass through bit for bit, so GQA degenerates to plain MHA exactly
        # (heads leading, as index_select gathers rows)
        rng = np.random.default_rng(12)
        k = Tensor(rng.normal(size=(4, 2, 3, 5)))
        out = ag.index_select(k, np.arange(4))
        assert out.data.tobytes() == k.data.tobytes()


def _pool_one(states, mode):
    """Pool one (L, D) state matrix through the batched path; the result must be unit-norm."""
    vec = pool_states(Tensor(np.asarray(states, dtype=np.float64)[None]), mode).data[0]
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-10
    return vec


class TestPooling:
    def test_identical_states_both_modes(self):
        v = np.array([3.0, 4.0])
        states = np.tile(v, (5, 1))
        for mode in ("mean", "last-token"):
            np.testing.assert_allclose(_pool_one(states, mode), v / 5.0, atol=1e-15)

    def test_mean_of_two_orthogonal(self):
        vec = _pool_one(np.array([[1.0, 0.0], [0.0, 1.0]]), "mean")
        np.testing.assert_allclose(vec, [np.sqrt(2) / 2] * 2, atol=1e-15)

    def test_last_token_returns_final_row(self):
        vec = _pool_one(np.array([[1.0, 0.0], [0.0, 2.0]]), "last-token")
        np.testing.assert_allclose(vec, [0.0, 1.0], atol=1e-15)

    def test_zero_states_raise_domain_error(self):
        with pytest.raises(DomainError):
            pool_states(Tensor(np.zeros((1, 3, 4))), "mean")

    def test_pool_states_respects_lengths(self):
        states = Tensor(np.array([[[2.0, 0.0], [0.0, 2.0], [9.0, 9.0]]]))
        out = pool_states(states, "mean", lengths=np.array([2]))
        np.testing.assert_allclose(out.data[0], [np.sqrt(2) / 2] * 2, atol=1e-15)


class TestMrlTruncate:
    DIMS = TOY.mrl_dims

    def _emb(self):
        v = np.zeros((1, 64))
        v[0, 0], v[0, 1] = 3.0, 4.0
        return Tensor(v / 5.0)

    @staticmethod
    def _unit(t, d):
        assert t.shape[-1] == d
        np.testing.assert_allclose(np.linalg.norm(t.data, axis=-1), 1.0, rtol=0, atol=1e-10)
        return t

    def test_full_dim_is_identity(self):
        e = self._emb()
        assert truncate_normalize(e, 64, self.DIMS) is e

    def test_three_four_five(self):
        t = self._unit(truncate_normalize(self._emb(), 16, self.DIMS), 16)
        np.testing.assert_allclose(t.data[0, :2], [0.6, 0.8], atol=1e-15)

    def test_nesting_identity(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(1, 64))
        e = Tensor(v / np.linalg.norm(v))
        direct = self._unit(truncate_normalize(e, 16, self.DIMS), 16)
        mid = self._unit(truncate_normalize(e, 32, self.DIMS), 32)
        nested = self._unit(truncate_normalize(mid, 16, self.DIMS), 16)
        np.testing.assert_allclose(direct.data, nested.data, atol=1e-12)

    def test_idempotent(self):
        e = truncate_normalize(self._emb(), 32, self.DIMS)
        np.testing.assert_array_equal(truncate_normalize(e, 32, self.DIMS).data, e.data)

    def test_unconfigured_dim_rejected(self):
        with pytest.raises(ValueError, match="mrl_dims"):
            truncate_normalize(self._emb(), 48, self.DIMS)

    def test_dim_beyond_active_width_rejected(self):
        e = truncate_normalize(self._emb(), 16, self.DIMS)
        with pytest.raises(ValueError, match="exceeds active dim 16"):
            truncate_normalize(e, 32, self.DIMS)

    def test_tracked_truncation_matches(self):
        rng = np.random.default_rng(10)
        raw = rng.normal(size=(3, 16))
        emb = ag.l2_normalize(Tensor(raw))
        out = truncate_normalize(emb, 8, (8, 16)).data
        expect = raw[:, :8] / np.linalg.norm(raw[:, :8], axis=-1, keepdims=True)
        np.testing.assert_allclose(out, expect, atol=1e-12)


def _chain_pool(states, mode, lengths=None):
    """``pool_states`` as generic nodes, as it was built before the ``pool`` op."""
    bsz, length, dim = states.shape
    if mode == "mean":
        if lengths is None:
            pooled = ag.mul(ag.sum_lastdim(_permute(states, (0, 2, 1))), 1.0 / length)
        else:
            valid = (np.arange(length)[None, :] < np.asarray(lengths)[:, None]).astype(np.float64)
            summed = ag.sum_lastdim(_permute(ag.mul(states, valid[:, :, None]), (0, 2, 1)))
            pooled = ag.mul(summed, (1.0 / np.asarray(lengths, dtype=np.float64))[:, None])
    else:
        last = np.asarray(lengths) - 1 if lengths is not None else np.full(bsz, length - 1)
        flat = np.arange(bsz) * length + np.asarray(last, dtype=np.intp)
        pooled = ag.index_select(_reshape(states, (bsz * length, dim)), flat)
    return ag.l2_normalize(pooled)


def _chain_truncate(emb, d, dims):
    """``truncate_normalize`` as it was built before the prefix ``l2_normalize``: a gather of ``arange(d)``."""
    return emb if d == emb.shape[-1] else ag.l2_normalize(_gather(emb, -1, np.arange(d)))


class TestFusedPoolingAndTruncation:
    """The ``pool`` node and the prefix ``l2_normalize`` against the chains they replaced."""

    @pytest.mark.parametrize("mode", ["mean", "last-token"])
    @pytest.mark.parametrize("padded", [False, True])
    def test_pool_states_equals_chain(self, mode, padded):
        rng = np.random.default_rng(41)
        states = rng.normal(size=(6, 11, 64))
        lengths = np.array([11, 1, 5, 10, 7, 3]) if padded else None
        g = rng.normal(size=(6, 64))
        out = {}
        for name, pool in (("op", pool_states), ("chain", _chain_pool)):
            t = Tensor(states, requires_grad=True)
            y = pool(t, mode, lengths)
            ag.backward(_sum(ag.mul(y, g)))
            out[name] = y.data, t.grad
        assert out["op"][0].tobytes() == out["chain"][0].tobytes()
        # equal in value: last-token gives -0.0 where the gather's scatter gave +0.0
        np.testing.assert_array_equal(out["op"][1], out["chain"][1])

    @pytest.mark.parametrize("d", [16, 32])
    def test_truncation_equals_gather_chain_bitwise(self, d):
        rng = np.random.default_rng(42)
        emb = rng.normal(size=(36, 64))
        g = rng.normal(size=(36, d))
        g[0] = -0.0     # a zero gradient row: -0.0 out of the normalize, +0.0 after the scatter
        out = {}
        for name, trunc in (("op", truncate_normalize), ("chain", _chain_truncate)):
            t = Tensor(emb, requires_grad=True)
            y = trunc(t, d, TOY.mrl_dims)
            ag.backward(_sum(ag.mul(y, g)))
            out[name] = y.data.tobytes(), t.grad.tobytes()
        assert out["op"] == out["chain"]

    @pytest.mark.parametrize("pooling", ["mean", "last-token"])
    def test_mrl_triplet_step_gradients_equal_chain(self, pooling):
        # a padded MRL triplet step as Trainer._triplet_batch_loss builds it, the
        # passage batch scored as it is embedded: every parameter gradient is
        # bitwise that of the chains, with the positives and negatives cut from
        # the batch by two gathers and truncated apart, signs of zero included
        enc = Encoder(dataclasses.replace(TOY, pooling=pooling), seed=0)
        bsz, k = 4, 3
        rng = np.random.default_rng(43)
        ids = rng.integers(2, TOY.vocab_size, size=(bsz + bsz * (k + 1), 9))
        lengths = rng.integers(1, 10, size=len(ids))
        lengths[0] = 9
        alpha = 1.0
        grads = {}
        for name, pool, trunc in (("op", pool_states, truncate_normalize),
                                  ("chain", _chain_pool, _chain_truncate)):
            q_emb = pool(enc.forward_batch(ids[:bsz], alpha, lengths[:bsz]), pooling, lengths[:bsz])
            all_emb = pool(enc.forward_batch(ids[bsz:], alpha, lengths[bsz:]), pooling, lengths[bsz:])
            operands = (q_emb, all_emb) if name == "op" else (
                q_emb, ag.index_select(all_emb, np.arange(bsz)),
                ag.index_select(all_emb, np.arange(bsz, bsz + bsz * k).reshape(bsz, k)))
            terms = []
            for d in sorted(TOY.mrl_dims, reverse=True):
                cut = [trunc(t, d, TOY.mrl_dims) for t in operands]
                terms.append(info_nce_with_scores(*cut)[0] if name == "op"
                             else _chain_info_nce(*cut, 0.05)[0])
            loss = _mean(terms)
            ag.backward(loss)
            grads[name] = {n: p.grad.tobytes() for n, p in enc.params.items()}
            for p in enc.params.values():
                p.grad = None
        assert grads["op"] == grads["chain"]


class TestEncoderGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_model_matches_finite_differences(self, seed):
        enc = Encoder(SMALL, seed=seed)
        rng = np.random.default_rng(100 + seed)
        q_ids = rng.integers(2, SMALL.vocab_size, size=(2, 4))
        p_ids = rng.integers(2, SMALL.vocab_size, size=(2, 4))
        alpha = 1.0
        name = sorted(enc.params)[seed % len(enc.params)]
        base = enc.params[name].data.copy()

        def f(t):
            enc.params[name] = t
            return info_nce_with_scores(enc.embed_batch(q_ids, alpha),
                                        enc.embed_batch(p_ids, alpha), temperature=0.5)[0]

        err = grad_check(f, base, h=1e-5, max_coords=20, seed=seed)
        enc.params[name] = Tensor(base, requires_grad=True)
        assert err < 1e-3, f"{name}: {err}"


def _tape_nodes(loss) -> int:
    """Op nodes (tracked tensors with parents) reachable from a loss."""
    seen, stack, n = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            n += bool(t._parents)
            stack.extend(p for p in t._parents if p.requires_grad)
    return n


class TestTape:
    def test_lm_step_tape_nodes(self):
        # one lm step of the default two-layer encoder, built as Trainer._loss
        # does for the lm task: 2 embedding nodes, 12 per layer, the final norm and 1 for the
        # lm head.  The unfused attention and norm chains recorded 86 nodes, the
        # 5-node logsumexp chain 56, the 5-node cross-entropy chain 52, the
        # head split and merge around the attention op 48, the reshapes that
        # flattened the gathered embeddings and the logits 32, and the logits
        # as a matmul on the permuted table 30
        enc = Encoder(TOY, seed=0)
        ids = np.random.default_rng(0).integers(2, TOY.vocab_size, size=(4, 12))
        states = enc.forward_batch(ids[:, :-1], 0.0)
        assert _tape_nodes(next_token_ce(states, enc.params["embed"], ids[:, 1:])) == 28

    def test_weak_contrastive_step_tape_nodes(self):
        # one unpadded in-batch InfoNCE step, built as Trainer._triplet_batch_loss
        # does for pairs: 29 nodes per mean-pooled embedding and 1 for the loss (106 with
        # the head split and merge around the attention op, 74 with the loss
        # as a 10-node chain, 65 with a reshape after the embedding gather, 63
        # with pooling as a permute, sum and scale)
        enc = Encoder(TOY, seed=0)
        ids = np.random.default_rng(1).integers(2, TOY.vocab_size, size=(2, 8, 10))
        alpha = 0.3
        q, p = (enc.embed_batch(x, alpha) for x in ids)
        assert _tape_nodes(info_nce_with_scores(q, p, temperature=0.05)[0]) == 59

    def test_supervised_triplet_step_tape_nodes(self):
        # one unpadded triplet step, built as Trainer._triplet_batch_loss does, with
        # MRL over (16, 32, 64) and 7 negatives: 58 for the two embeddings, 4 to
        # truncate and renormalize the queries and the passage batch at 16 and 32,
        # 1 per dim for the loss and 3 for the mean (124 with the loss as a 14-node
        # chain, 85 with a reshape after each embedding gather and after the
        # negatives' gather, 82 with pooling as a permute, sum and scale and each
        # truncation as a gather, 72 with 2 gathers that cut the positives and
        # negatives from the passage batch, each then truncated on its own)
        enc = Encoder(TOY, seed=0)
        bsz, k = 4, 7
        rng = np.random.default_rng(2)
        alpha = 1.0
        q_emb = enc.embed_batch(rng.integers(2, TOY.vocab_size, size=(bsz, 10)), alpha)
        p_emb = enc.embed_batch(rng.integers(2, TOY.vocab_size, size=(bsz + bsz * k, 10)), alpha)
        dims = TOY.mrl_dims
        loss = _mean([info_nce_with_scores(*(truncate_normalize(t, d, dims)
                                             for t in (q_emb, p_emb)))[0]
                      for d in sorted(dims, reverse=True)])
        assert _tape_nodes(loss) == 68

    def test_sts_step_tape_nodes(self):
        # one unpadded STS step, built as Trainer._sts_batch_loss does, with MRL
        # over (16, 32, 64): 58 for the two embeddings, 4 to truncate and
        # renormalize at 16 and 32, 2 per dim for the cosines, 1 per dim for the
        # loss and 3 for the mean (105 with the loss as an 8-node chain, 84 with
        # a reshape after each embedding gather, 82 with pooling as a permute,
        # sum and scale and each truncation as a gather)
        enc = Encoder(TOY, seed=0)
        rng = np.random.default_rng(3)
        alpha = 1.0
        ea, eb = (enc.embed_batch(rng.integers(2, TOY.vocab_size, size=(32, 10)), alpha)
                  for _ in range(2))
        labels = rng.integers(0, 5, size=32).astype(float)
        dims = TOY.mrl_dims
        cos = [ag.sum_lastdim(ag.mul(truncate_normalize(ea, d, dims), truncate_normalize(eb, d, dims)))
               for d in dims]
        assert _tape_nodes(_mean([cosent(c, labels) for c in cos])) == 74

    def test_padded_weights_match_row_loop(self):
        lengths = np.array([6, 2, 5, 1])
        ref = np.broadcast_to(build_soft_mask(6, 0.25), (4, 6, 6)).copy()
        for b, ln in enumerate(lengths):
            ref[b, :, ln:] = 0.0
            ref[b, ln:, ln:][np.diag_indices(6 - ln)] = 1.0
        w = Encoder(SMALL, seed=0)._mask_weights(0.25, 6, lengths)
        assert w.tobytes() == ref.tobytes()


class TestNoGradInference:
    @pytest.mark.parametrize("pooling", ["mean", "last-token"])
    def test_embed_batch_bitwise_equal_without_tape(self, pooling):
        enc = Encoder(dataclasses.replace(SMALL, pooling=pooling), seed=3)
        ids = np.random.default_rng(4).integers(2, SMALL.vocab_size, size=(3, 6))
        lengths = np.array([6, 4, 2])
        alpha = 1.0
        tracked = enc.embed_batch(ids, alpha, lengths)
        with ag.no_grad():
            untracked = enc.embed_batch(ids, alpha, lengths)
        assert tracked.requires_grad and not untracked.requires_grad
        assert untracked._parents == ()
        assert untracked.data.tobytes() == tracked.data.tobytes()

    @pytest.mark.parametrize("mask_kind", ["causal", "soft", "bidirectional"])
    @pytest.mark.parametrize("padded", [False, True])
    def test_embed_batch_without_tape_at_lane_tree_sizes(self, mask_kind, padded):
        # 64 texts x 4 heads x 8 tokens: attention's 8-key row max takes the lane
        # tree, and each text's embedding keeps its bits in a block of 23 texts
        enc = Encoder(SMALL, seed=5)
        ids = np.random.default_rng(6).integers(2, SMALL.vocab_size, size=(64, 8))
        lengths = np.arange(64) % 8 + 1 if padded else None
        alpha = {"causal": 0.0, "bidirectional": 1.0, "soft": 0.4}[mask_kind]
        tracked = enc.embed_batch(ids, alpha, lengths)
        with ag.no_grad():
            untracked = enc.embed_batch(ids, alpha, lengths)
            block = enc.embed_batch(ids[5:28], alpha, None if lengths is None else lengths[5:28])
        assert untracked.data.tobytes() == tracked.data.tobytes()
        assert block.data.tobytes() == untracked.data[5:28].tobytes()


class TestCheckpointRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        enc = Encoder(SMALL, seed=6)
        arrays = enc.export_arrays()
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, SMALL.to_dict(), arrays, {"note": "x"})
        config, restored, extra = load_checkpoint(path)
        assert config == SMALL.to_dict()
        assert extra == {"note": "x"}
        assert set(restored) == set(arrays)
        for k in arrays:
            assert restored[k].tobytes() == arrays[k].tobytes()

    def test_restored_encoder_identical_forward(self, tmp_path):
        enc = Encoder(SMALL, seed=7)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, SMALL.to_dict(), enc.export_arrays(), {})
        _, arrays, _ = load_checkpoint(path)
        enc2 = Encoder(SMALL, params=arrays)
        ids = np.array([[2, 3, 4]])
        a = enc.forward_batch(ids, 0.0).data
        b = enc2.forward_batch(ids, 0.0).data
        assert a.tobytes() == b.tobytes()

    def test_config_mismatch_prints_both(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, SMALL.to_dict(), Encoder(SMALL, seed=1).export_arrays(), {})
        config, _, _ = load_checkpoint(path)
        other = EncoderConfig(layers=1, hidden_dim=16, heads=4, kv_heads=2, ffn_dim=32,
                              vocab_size=24, max_len=8, mrl_dims=(4, 8, 16))
        with pytest.raises(CheckpointError, match=r"(?s)expected.*found"):
            require_matching_config(other.to_dict(), config)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        class FailsOnWrite:
            """Array-like whose first conversion (the header) works and whose second fails."""
            calls = 0

            def __array__(self, dtype=None, copy=None):
                FailsOnWrite.calls += 1
                if FailsOnWrite.calls > 1:
                    raise OSError("no space left on device")
                return np.zeros(2)

        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, SMALL.to_dict(), Encoder(SMALL, seed=1).export_arrays(), {})
        before = path.read_bytes()
        # "a" is written first, then converting "b" fails mid-file
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, {}, {"a": np.ones(3), "b": FailsOnWrite()}, {})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["enc.ckpt"]

    def test_directory_fsynced_after_rename(self, tmp_path, monkeypatch):
        events = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino))
            fsync(fd)

        def record_replace(src, dst):
            replace(src, dst)
            events.append(("replace",))

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        path = tmp_path / "run" / "enc.ckpt"
        save_checkpoint(path, SMALL.to_dict(), Encoder(SMALL, seed=1).export_arrays(), {})
        directory = os.stat(path.parent).st_ino
        # the file's data before the rename, the directory entry after it
        assert events == [("fsync", False, os.stat(path).st_ino), ("replace",),
                          ("fsync", True, directory)]

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "junk.ckpt"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)


def _save_v1(path, config, arrays, extra):
    """The version-1 writer: everything but the buffers in the header, no state section."""
    entries = [{"name": k, "shape": list(np.asarray(arrays[k]).shape)} for k in sorted(arrays)]
    header = json.dumps({"config": config, "extra": extra, "arrays": entries},
                        sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"EMKP" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header)
        for e in entries:
            fh.write(np.ascontiguousarray(arrays[e["name"]], dtype="<f8").tobytes())


def _save_v2(path, config, arrays, extra, state):
    """The version-2 writer: the version-1 header plus ``state_bytes``, and ``state`` as JSON
    after the buffers."""
    entries = [{"name": k, "shape": list(np.asarray(arrays[k]).shape)} for k in sorted(arrays)]
    state_bytes = json.dumps(state, sort_keys=True, ensure_ascii=False,
                             separators=(",", ":")).encode("utf-8")
    header = json.dumps({"config": config, "extra": extra, "arrays": entries,
                         "state_bytes": len(state_bytes)},
                        sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"EMKP" + struct.pack("<I", 2) + struct.pack("<Q", len(header)) + header)
        for e in entries:
            fh.write(np.ascontiguousarray(arrays[e["name"]], dtype="<f8").tobytes())
        fh.write(state_bytes)


def _training_checkpoint(path, version=3):
    """A checkpoint shaped like the trainer's: weights, optimizer moments, mining state; the
    state as ``mining.*`` buffers (version 3) or as a JSON section (version 2)."""
    arrays = {f"model.{k}": v for k, v in Encoder(SMALL, seed=3).export_arrays().items()}
    arrays.update({f"opt.m.{k}": v + 1.0 for k, v in arrays.items()})
    extra = {"stage_index": 3, "stage_step": 5, "vocab": ["a", "b"], "manifest_seed": 7}
    if version == 3:
        state = {"mining.slots": np.arange(50.0), "mining.s0": np.full(50, np.nan),
                 "mining.pool": np.arange(70.0), "mining.cursor": np.zeros(10)}
        save_checkpoint(path, SMALL.to_dict(), {**arrays, **state}, extra)
        return {**arrays, **state}, extra, {}
    state = {"mining": {"version": 1, "slots": [[0.5, "q0", "n1"]] * 50}}
    _save_v2(path, SMALL.to_dict(), arrays, extra, state)
    return arrays, extra, state


class TestCheckpointLayout:
    def test_version3_keeps_the_mining_state_in_buffers(self, tmp_path):
        path = tmp_path / "run.ckpt"
        arrays, extra, _ = _training_checkpoint(path)
        raw = path.read_bytes()
        version, hlen = struct.unpack("<I", raw[4:8])[0], struct.unpack("<Q", raw[8:16])[0]
        header = json.loads(raw[16:16 + hlen])
        assert version == 3 and "state_bytes" not in header
        assert len(raw) == 16 + hlen + 8 * sum(v.size for v in arrays.values())
        config, restored, got = load_checkpoint(path)
        assert config == SMALL.to_dict() and got == extra
        assert {k: v.tobytes() for k, v in restored.items()} == \
            {k: v.tobytes() for k, v in arrays.items()}

    def test_later_version_refused(self, tmp_path):
        path = tmp_path / "run.ckpt"
        _training_checkpoint(path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 4)
        path.write_bytes(bytes(raw))
        for reader in (load_checkpoint, load_weights):
            with pytest.raises(CheckpointError, match="version 4 unsupported"):
                reader(path)

    def test_weights_read_skips_moments_and_state(self, tmp_path):
        for version in (2, 3):
            path = tmp_path / f"run{version}.ckpt"
            arrays, extra, _ = _training_checkpoint(path, version)
            config, weights, got = load_weights(path)
            assert config == SMALL.to_dict() and got == extra
            assert {k: v.tobytes() for k, v in weights.items()} == \
                {k: v.tobytes() for k, v in arrays.items() if k.startswith("model.")}

    def test_state_section_is_after_the_buffers(self, tmp_path):
        # corrupt only a version-2 file's state bytes: weights still load, a resume is refused
        path = tmp_path / "run.ckpt"
        _, _, state = _training_checkpoint(path, version=2)
        raw = bytearray(path.read_bytes())
        n = len(json.dumps(state, sort_keys=True, separators=(",", ":")))
        raw[-n:] = b"\xff" * n
        path.write_bytes(bytes(raw))
        _, weights, _ = load_weights(path)
        assert weights
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*version 2 file"):
            load_checkpoint(path)

    def test_version1_file_gives_its_weights_and_refuses_a_resume(self, tmp_path):
        path = tmp_path / "old.ckpt"
        arrays = {f"model.{k}": v for k, v in Encoder(SMALL, seed=4).export_arrays().items()}
        arrays["opt.m.x"] = np.arange(3.0)
        extra = {"vocab": ["a"], "stage_index": 1, "mining": {"version": 1, "slots": []}}
        _save_v1(path, SMALL.to_dict(), arrays, extra)
        config, weights, got = load_weights(path)
        assert config == SMALL.to_dict() and got == extra
        assert {k: v.tobytes() for k, v in weights.items()} == \
            {k: v.tobytes() for k, v in arrays.items() if k != "opt.m.x"}
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*version 1 file.*"
                           "still read its weights, but its stage must restart"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["prefix", "header", "weights", "moments", "state", "trailing"])
    @pytest.mark.parametrize("reader", [load_checkpoint, load_weights])
    def test_torn_file_refused_naming_path(self, tmp_path, where, reader):
        # the buffers run in name order: mining.* (version 3 only), model.*, opt.*; "state" cuts
        # into a version-2 file's state section, or into a version-3 file's last buffer
        for version in (2, 3):
            path = tmp_path / f"torn{version}.ckpt"
            arrays, _, _ = _training_checkpoint(path, version)
            raw = path.read_bytes()
            hlen = struct.unpack("<Q", raw[8:16])[0]
            mining = sum(v.size for k, v in arrays.items() if k.startswith("mining.")) * 8
            weights = sum(v.size for k, v in arrays.items() if k.startswith("model.")) * 8
            start = 16 + hlen + mining
            cut = {"prefix": 10, "header": 16 + hlen // 2, "weights": start + weights // 2,
                   "moments": start + weights + 8, "state": len(raw) - 5}.get(where)
            path.write_bytes(raw[:cut] if cut else raw + b"\x00")
            with pytest.raises(CheckpointError, match=re.escape(str(path))):
                reader(path)
