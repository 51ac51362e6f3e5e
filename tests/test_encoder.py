"""Encoder behavior: causality under the causal mask, grouped-query attention
against a plain multi-head oracle, pooling, nested-dim truncation, and
full-model gradients."""

import numpy as np
import pytest

from embedkit import autograd as ag
from embedkit.autograd import DomainError, Tensor, grad_check
from embedkit.checkpoint import CheckpointError, load_checkpoint, require_matching_config, save_checkpoint
from embedkit.encoder import (Encoder, EncoderConfig, SentenceEmbedding, full_scale_config,
                              mrl_truncate, pool, pool_states, truncate_normalize)
from embedkit.losses import ContrastiveBatch, info_nce
from embedkit.masks import bidirectional_mask, causal_mask

TOY = EncoderConfig()
SMALL = EncoderConfig(layers=2, hidden_dim=16, heads=4, kv_heads=2, ffn_dim=32,
                      vocab_size=24, max_len=8, mrl_dims=(4, 8, 16))


class TestConfig:
    def test_default_validates(self):
        assert TOY.heads % TOY.kv_heads == 0

    def test_full_scale_shape(self):
        cfg = full_scale_config()
        assert cfg.heads // cfg.kv_heads == 4
        assert cfg.mrl_dims[-1] == cfg.hidden_dim

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
        a = enc.encode(ids[0], bidirectional_mask(4)).data
        b = enc.encode(ids[0], bidirectional_mask(4)).data
        assert a.tobytes() == b.tobytes()

    def test_identity_group_gather_is_bitwise_copy(self):
        # kv_heads == heads makes the head-group gather an identity: values
        # pass through bit for bit, so GQA degenerates to plain MHA exactly
        rng = np.random.default_rng(12)
        k = Tensor(rng.normal(size=(2, 4, 3, 5)))
        out = ag.index_select(k, 1, np.arange(4))
        assert out.data.tobytes() == k.data.tobytes()


class TestPooling:
    def test_identical_states_both_modes(self):
        v = np.array([3.0, 4.0])
        states = np.tile(v, (5, 1))
        for mode in ("mean", "last-token"):
            np.testing.assert_allclose(pool(states, mode).vector, v / 5.0, atol=1e-15)

    def test_mean_of_two_orthogonal(self):
        e = pool(np.array([[1.0, 0.0], [0.0, 1.0]]), "mean")
        np.testing.assert_allclose(e.vector, [np.sqrt(2) / 2] * 2, atol=1e-15)

    def test_last_token_returns_final_row(self):
        e = pool(np.array([[1.0, 0.0], [0.0, 2.0]]), "last-token")
        np.testing.assert_allclose(e.vector, [0.0, 1.0], atol=1e-15)

    def test_zero_states_raise_domain_error(self):
        with pytest.raises(DomainError):
            pool(np.zeros((3, 4)), "mean")

    def test_pool_states_respects_lengths(self):
        states = Tensor(np.array([[[2.0, 0.0], [0.0, 2.0], [9.0, 9.0]]]))
        out = pool_states(states, "mean", lengths=np.array([2]))
        np.testing.assert_allclose(out.data[0], [np.sqrt(2) / 2] * 2, atol=1e-15)


class TestMrlTruncate:
    def _emb(self):
        v = np.zeros(64)
        v[0], v[1] = 3.0, 4.0
        return SentenceEmbedding(v / 5.0, 64)

    def test_full_dim_is_identity(self):
        e = self._emb()
        assert mrl_truncate(e, 64, TOY.mrl_dims) is e

    def test_three_four_five(self):
        t = mrl_truncate(self._emb(), 16, TOY.mrl_dims)
        np.testing.assert_allclose(t.vector[:2], [0.6, 0.8], atol=1e-15)
        assert t.dim_used == 16

    def test_nesting_identity(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=64)
        e = SentenceEmbedding(v / np.linalg.norm(v), 64)
        direct = mrl_truncate(e, 16, TOY.mrl_dims)
        nested = mrl_truncate(mrl_truncate(e, 32, TOY.mrl_dims), 16, TOY.mrl_dims)
        np.testing.assert_allclose(direct.vector, nested.vector, atol=1e-12)

    def test_idempotent(self):
        e = mrl_truncate(self._emb(), 32, TOY.mrl_dims)
        np.testing.assert_array_equal(mrl_truncate(e, 32, TOY.mrl_dims).vector, e.vector)

    def test_unconfigured_dim_rejected(self):
        with pytest.raises(ValueError, match="mrl_dims"):
            mrl_truncate(self._emb(), 48, TOY.mrl_dims)

    def test_tracked_truncation_matches(self):
        rng = np.random.default_rng(10)
        raw = rng.normal(size=(3, 16))
        emb = ag.l2_normalize(Tensor(raw))
        out = truncate_normalize(emb, 8).data
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


class TestNoGradInference:
    @pytest.mark.parametrize("pooling", ["mean", "last-token"])
    def test_embed_batch_bitwise_equal_without_tape(self, pooling):
        enc = Encoder(SMALL, seed=3)
        ids = np.random.default_rng(4).integers(2, SMALL.vocab_size, size=(3, 6))
        lengths = np.array([6, 4, 2])
        mask = bidirectional_mask(6)
        tracked = enc.embed_batch(ids, mask, lengths, pooling=pooling)
        with ag.no_grad():
            untracked = enc.embed_batch(ids, mask, lengths, pooling=pooling)
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

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "junk.ckpt"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)
