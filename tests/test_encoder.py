"""Encoder behavior: causality under the causal mask, grouped-query attention
against a plain multi-head oracle, pooling, nested-dim truncation, and
full-model gradients."""

import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from embedkit import autograd as ag
from embedkit.autograd import DomainError, Tensor, grad_check
from embedkit.checkpoint import (CheckpointError, load_checkpoint, load_weights, require_matching_config,
                                 save_checkpoint)
from embedkit.encoder import Encoder, EncoderConfig, pool_states, truncate_normalize
from embedkit.losses import ContrastiveBatch, StsBatch, cosent, info_nce, next_token_ce
from embedkit.masks import ScheduleState, bidirectional_mask, build_soft_mask, causal_mask
from embedkit.pipeline import _mean

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


class TestCausality:
    def test_causal_prefix_states_bitwise_invariant(self):
        enc = Encoder(TOY, seed=1)
        ids = np.array([[3, 4, 5, 6, 7, 8, 9, 10]])
        mask = causal_mask(8)
        before = enc.forward_batch(ids, mask).data
        ids2 = ids.copy()
        ids2[0, 7] = 99
        after = enc.forward_batch(ids2, mask).data
        assert before[0, :7].tobytes() == after[0, :7].tobytes()

    def test_bidirectional_first_state_changes(self):
        enc = Encoder(TOY, seed=1)
        ids = np.array([[3, 4, 5, 6, 7, 8, 9, 10]])
        mask = bidirectional_mask(8)
        before = enc.forward_batch(ids, mask).data
        ids2 = ids.copy()
        ids2[0, 7] = 99
        after = enc.forward_batch(ids2, mask).data
        assert not np.array_equal(before[0, 0], after[0, 0])

    def test_zero_layers_is_embed_plus_positions(self):
        cfg = EncoderConfig(layers=0)
        enc = Encoder(cfg, seed=2)
        ids = np.array([[5, 6, 7]])
        states = enc.forward_batch(ids, causal_mask(3)).data
        expected = enc.params["embed"].data[ids[0]] + enc.positions[:3]
        np.testing.assert_array_equal(states[0], expected)

    def test_unknown_token_rejected(self):
        enc = Encoder(SMALL, seed=0)
        with pytest.raises(ValueError, match="unknown token id"):
            enc.forward_batch(np.array([[1, 99]]), causal_mask(2))

    def test_oversize_sequence_rejected(self):
        enc = Encoder(SMALL, seed=0)
        with pytest.raises(ValueError, match="max_len"):
            enc.forward_batch(np.ones((1, 9), dtype=int), causal_mask(9))


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
        ours = enc.forward_batch(ids, bidirectional_mask(5)).data[0]
        ref = _reference_mha_forward(enc, ids)
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_forward_bitwise_reproducible(self):
        enc = Encoder(SMALL, seed=4)
        ids = np.array([[2, 3, 4, 5]])
        a = enc.forward_batch(ids, bidirectional_mask(4)).data
        b = enc.forward_batch(ids, bidirectional_mask(4)).data
        assert a.tobytes() == b.tobytes()

    def test_identity_group_gather_is_bitwise_copy(self):
        # kv_heads == heads makes the head-group gather an identity: values
        # pass through bit for bit, so GQA degenerates to plain MHA exactly
        rng = np.random.default_rng(12)
        k = Tensor(rng.normal(size=(2, 4, 3, 5)))
        out = ag.index_select(k, 1, np.arange(4))
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


class TestEncoderGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_model_matches_finite_differences(self, seed):
        enc = Encoder(SMALL, seed=seed)
        rng = np.random.default_rng(100 + seed)
        q_ids = rng.integers(2, SMALL.vocab_size, size=(2, 4))
        p_ids = rng.integers(2, SMALL.vocab_size, size=(2, 4))
        mask = bidirectional_mask(4)
        name = sorted(enc.params)[seed % len(enc.params)]
        base = enc.params[name].data.copy()

        def f(t):
            enc.params[name] = t
            return info_nce(ContrastiveBatch(enc.embed_batch(q_ids, mask),
                                             enc.embed_batch(p_ids, mask), temperature=0.5))

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
        # one lm step of the default two-layer encoder, built as Trainer._lm_step
        # does: 3 embedding nodes, 12 per layer, the final norm and 4 for the
        # loss.  The unfused attention and norm chains recorded 86 nodes, the
        # 5-node logsumexp chain 56, the 5-node cross-entropy chain 52, and the
        # head split and merge around the attention op 48
        enc = Encoder(TOY, seed=0)
        ids = np.random.default_rng(0).integers(2, TOY.vocab_size, size=(4, 12))
        states = enc.forward_batch(ids[:, :-1], causal_mask(11))
        logits = ag.reshape(enc.lm_logits(states), (4 * 11, TOY.vocab_size))
        assert _tape_nodes(next_token_ce(logits, ids[:, 1:].reshape(-1))) == 32

    def test_weak_contrastive_step_tape_nodes(self):
        # one unpadded in-batch InfoNCE step, built as Trainer._contrastive_step
        # does: 32 nodes per mean-pooled embedding and 1 for the loss (106 with
        # the head split and merge around the attention op, 74 with the loss
        # as a 10-node chain)
        enc = Encoder(TOY, seed=0)
        ids = np.random.default_rng(1).integers(2, TOY.vocab_size, size=(2, 8, 10))
        mask = build_soft_mask(ScheduleState("linear", 3, 10), 10)
        q, p = (enc.embed_batch(x, mask) for x in ids)
        assert _tape_nodes(info_nce(ContrastiveBatch(q, p, temperature=0.05))) == 65

    def test_supervised_triplet_step_tape_nodes(self):
        # one unpadded triplet step, built as Trainer._triplet_batch_loss does, with
        # MRL over (16, 32, 64) and 7 negatives: 64 for the two embeddings, 3 to
        # cut positives and negatives from the passage batch, 12 to truncate and
        # renormalize at 16 and 32, 1 per dim for the loss and 3 for the mean
        # (124 with the loss as a 14-node chain)
        enc = Encoder(TOY, seed=0)
        bsz, k, dim = 4, 7, TOY.hidden_dim
        rng = np.random.default_rng(2)
        mask = bidirectional_mask(10)
        q_emb = enc.embed_batch(rng.integers(2, TOY.vocab_size, size=(bsz, 10)), mask)
        all_emb = enc.embed_batch(rng.integers(2, TOY.vocab_size, size=(bsz + bsz * k, 10)), mask)
        p_emb = ag.index_select(all_emb, 0, np.arange(bsz))
        n_emb = ag.reshape(ag.index_select(all_emb, 0, np.arange(bsz, bsz + bsz * k)), (bsz, k, dim))
        dims = TOY.mrl_dims
        loss = _mean([info_nce(ContrastiveBatch(*(truncate_normalize(t, d, dims)
                                                  for t in (q_emb, p_emb, n_emb))))
                      for d in sorted(dims, reverse=True)])
        assert _tape_nodes(loss) == 85

    def test_sts_step_tape_nodes(self):
        # one unpadded STS step, built as Trainer._sts_batch_loss does, with MRL
        # over (16, 32, 64): 64 for the two embeddings, 8 to truncate and
        # renormalize at 16 and 32, 2 per dim for the cosines, 1 per dim for the
        # loss and 3 for the mean (105 with the loss as an 8-node chain)
        enc = Encoder(TOY, seed=0)
        rng = np.random.default_rng(3)
        mask = bidirectional_mask(10)
        ea, eb = (enc.embed_batch(rng.integers(2, TOY.vocab_size, size=(32, 10)), mask)
                  for _ in range(2))
        labels = rng.integers(0, 5, size=32).astype(float)
        dims = TOY.mrl_dims
        cos = [ag.sum_lastdim(ag.mul(truncate_normalize(ea, d, dims), truncate_normalize(eb, d, dims)))
               for d in dims]
        assert _tape_nodes(_mean([cosent(StsBatch(c, labels)) for c in cos])) == 84

    def test_padded_weights_match_row_loop(self):
        mask = build_soft_mask(ScheduleState("linear", 1, 4), 6)
        lengths = np.array([6, 2, 5, 1])
        ref = np.broadcast_to(mask.entries, (4, 6, 6)).copy()
        for b, ln in enumerate(lengths):
            ref[b, :, ln:] = 0.0
            ref[b, ln:, ln:][np.diag_indices(6 - ln)] = 1.0
        w = Encoder(SMALL, seed=0)._mask_weights(mask, 6, lengths)
        assert w.tobytes() == ref.tobytes()


class TestNoGradInference:
    @pytest.mark.parametrize("pooling", ["mean", "last-token"])
    def test_embed_batch_bitwise_equal_without_tape(self, pooling):
        enc = Encoder(dataclasses.replace(SMALL, pooling=pooling), seed=3)
        ids = np.random.default_rng(4).integers(2, SMALL.vocab_size, size=(3, 6))
        lengths = np.array([6, 4, 2])
        mask = bidirectional_mask(6)
        tracked = enc.embed_batch(ids, mask, lengths)
        with ag.no_grad():
            untracked = enc.embed_batch(ids, mask, lengths)
        assert tracked.requires_grad and not untracked.requires_grad
        assert untracked._parents == ()
        assert untracked.data.tobytes() == tracked.data.tobytes()


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
        a = enc.forward_batch(ids, causal_mask(3)).data
        b = enc2.forward_batch(ids, causal_mask(3)).data
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


def _training_checkpoint(path):
    """A checkpoint shaped like the trainer's: weights, optimizer moments, resume state."""
    arrays = {f"model.{k}": v for k, v in Encoder(SMALL, seed=3).export_arrays().items()}
    arrays.update({f"opt.m.{k}": v + 1.0 for k, v in arrays.items()})
    extra = {"stage_index": 3, "stage_step": 5, "vocab": ["a", "b"], "manifest_seed": 7}
    state = {"mining": {"version": 1, "slots": [[0.5, "q0", "n1"]] * 50}}
    save_checkpoint(path, SMALL.to_dict(), arrays, extra, state)
    return arrays, extra, state


class TestCheckpointLayout:
    def test_full_read_merges_state_into_extra(self, tmp_path):
        path = tmp_path / "run.ckpt"
        arrays, extra, state = _training_checkpoint(path)
        config, restored, got = load_checkpoint(path)
        assert config == SMALL.to_dict() and got == {**extra, **state}
        assert {k: v.tobytes() for k, v in restored.items()} == \
            {k: v.tobytes() for k, v in arrays.items()}

    def test_weights_read_skips_moments_and_state(self, tmp_path):
        path = tmp_path / "run.ckpt"
        _, extra, _ = _training_checkpoint(path)
        config, weights, got = load_weights(path)
        _, full, _ = load_checkpoint(path)
        assert config == SMALL.to_dict() and got == extra
        assert sorted(weights) == sorted(k for k in full if k.startswith("model."))
        assert all(weights[k].tobytes() == full[k].tobytes() for k in weights)

    def test_state_section_is_after_the_buffers(self, tmp_path):
        # corrupt only the state bytes: weights still load, a resume is refused
        path = tmp_path / "run.ckpt"
        _, _, state = _training_checkpoint(path)
        raw = bytearray(path.read_bytes())
        n = len(json.dumps(state, sort_keys=True, separators=(",", ":")))
        raw[-n:] = b"\xff" * n
        path.write_bytes(bytes(raw))
        _, weights, _ = load_weights(path)
        assert weights
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*training-state"):
            load_checkpoint(path)

    def test_version1_file_loads_through_both_readers(self, tmp_path):
        path = tmp_path / "old.ckpt"
        arrays = {f"model.{k}": v for k, v in Encoder(SMALL, seed=4).export_arrays().items()}
        arrays["opt.m.x"] = np.arange(3.0)
        extra = {"vocab": ["a"], "stage_index": 1, "mining": {"version": 1, "slots": []}}
        _save_v1(path, SMALL.to_dict(), arrays, extra)
        config, restored, got = load_checkpoint(path)
        assert config == SMALL.to_dict() and got == extra
        assert {k: v.tobytes() for k, v in restored.items()} == \
            {k: v.tobytes() for k, v in arrays.items()}
        _, weights, got = load_weights(path)
        assert got == extra and sorted(weights) == sorted(k for k in arrays if k != "opt.m.x")

    @pytest.mark.parametrize("where", ["prefix", "header", "weights", "moments", "state", "trailing"])
    @pytest.mark.parametrize("reader", [load_checkpoint, load_weights])
    def test_torn_file_refused_naming_path(self, tmp_path, where, reader):
        path = tmp_path / "torn.ckpt"
        arrays, _, _ = _training_checkpoint(path)
        raw = path.read_bytes()
        hlen = struct.unpack("<Q", raw[8:16])[0]
        weights = sum(v.size for k, v in arrays.items() if k.startswith("model.")) * 8
        cut = {"prefix": 10, "header": 16 + hlen // 2, "weights": 16 + hlen + weights // 2,
               "moments": 16 + hlen + weights + 8, "state": len(raw) - 5}.get(where)
        path.write_bytes(raw[:cut] if cut else raw + b"\x00")
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            reader(path)
