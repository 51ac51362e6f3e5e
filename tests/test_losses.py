"""Hand-derived loss values, structural invariances, and finite-difference
gradient checks for the three objectives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedkit import autograd as ag
from embedkit.autograd import Tensor, grad_check
from embedkit.losses import (ContrastiveBatch, StsBatch, cosent, info_nce,
                             info_nce_with_scores, next_token_ce)

LOG_1P_EXP_M2 = math.log(1.0 + math.exp(-2.0))     # 0.126928...


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _log(a):
    """A ``log`` node: the reference CoSENT's ``log1p`` gradient is checked against."""
    return ag._make(np.log(a.data), (a,), lambda g: ag._accumulate(a, g / a.data))


def _exp(a):
    """An ``exp`` node for the reference CoSENT chain."""
    out = np.exp(a.data)
    return ag._make(out, (a,), lambda g: ag._accumulate(a, g * out))


def _nce(q, p, n, temperature):
    """The fused InfoNCE loss of plain arrays, which need not be unit vectors."""
    return float(ag.info_nce_loss(Tensor(q), Tensor(p), Tensor(n), temperature)[0].data)


class TestInfoNceValues:
    def test_single_pair_with_antipodal_negative(self):
        batch = ContrastiveBatch(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0]]),
                                 Tensor([[[-1.0, 0.0]]]), temperature=1.0)
        assert float(info_nce(batch).data) == pytest.approx(LOG_1P_EXP_M2, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_uniform_candidates_give_log_m(self, m):
        # one query, m candidates all at the same cosine
        cand = np.tile([[0.0, 1.0]], (m - 1, 1))[None, :, :]
        batch = ContrastiveBatch(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]),
                                 Tensor(cand), temperature=1.0)
        assert float(info_nce(batch).data) == pytest.approx(math.log(m), abs=1e-9)

    def test_single_pair_no_negatives_is_zero(self):
        batch = ContrastiveBatch(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]), temperature=0.05)
        assert float(info_nce(batch).data) == 0.0

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = _unit(rng.normal(size=(5, 6)))
            p = _unit(rng.normal(size=(5, 6)))
            n = _unit(rng.normal(size=(5, 3, 6)))
            val = float(info_nce(ContrastiveBatch(Tensor(q), Tensor(p), Tensor(n))).data)
            assert val >= 0.0

    def test_score_shift_invariance(self):
        # one more coordinate, 1 on the queries and 0.37 on every candidate,
        # adds 0.37 to every score
        rng = np.random.default_rng(1)
        q, p = rng.uniform(-1, 1, (2, 4, 5))
        n = rng.uniform(-1, 1, (4, 2, 5))

        def lift(x, v):
            return np.concatenate([x, np.full(x.shape[:-1] + (1,), v)], axis=-1)

        base = _nce(q, p, n, 0.7)
        shifted = _nce(lift(q, 1.0), lift(p, 0.37), lift(n, 0.37), 0.7)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_strictly_decreasing_in_positive_score(self):
        # one query and D = 1, so each score is the candidate's value
        neg = np.array([[[0.2], [-0.1], [0.5]]])
        lo = _nce([[1.0]], [[0.2]], neg, 0.5)
        hi = _nce([[1.0]], [[0.3]], neg, 0.5)
        assert hi < lo

    def test_reports_scores_used(self):
        rng = np.random.default_rng(2)
        q, p = _unit(rng.normal(size=(3, 4))), _unit(rng.normal(size=(3, 4)))
        n = _unit(rng.normal(size=(3, 2, 4)))
        _, pos, neg = info_nce_with_scores(ContrastiveBatch(Tensor(q), Tensor(p), Tensor(n)))
        np.testing.assert_allclose(pos, (q * p).sum(-1), atol=1e-12)
        np.testing.assert_allclose(neg, np.einsum("bkd,bd->bk", n, q), atol=1e-12)

    def test_unnormalized_inputs_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            ContrastiveBatch(Tensor([[2.0, 0.0]]), Tensor([[1.0, 0.0]]))

    def test_nan_embeddings_rejected(self):
        with pytest.raises(ValueError, match="query embeddings must be L2-normalized"):
            ContrastiveBatch(Tensor([[np.nan, 0.0]]), Tensor([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="negative embeddings must be L2-normalized"):
            ContrastiveBatch(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0]]),
                             Tensor([[[0.0, 1.0], [np.nan, np.nan]]]))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ContrastiveBatch(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))))

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            ContrastiveBatch(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0]]), temperature=0.0)


class TestCosentValues:
    def test_all_labels_equal_is_zero(self):
        batch = StsBatch(Tensor([0.3, -0.2, 0.9]), np.array([1.0, 1.0, 1.0]))
        assert float(cosent(batch).data) == 0.0

    def test_single_pair_is_zero(self):
        assert float(cosent(StsBatch(Tensor([0.5]), np.array([2.0]))).data) == 0.0

    @pytest.mark.parametrize("tau", [0.02, 0.05, 1.0])
    def test_equal_cosines_ordered_labels_give_log2(self, tau):
        batch = StsBatch(Tensor([0.4, 0.4]), np.array([1.0, 0.0]), tau=tau)
        assert float(cosent(batch).data) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_correctly_ordered_gap_of_point1_at_tau_005(self):
        batch = StsBatch(Tensor([0.9, 0.8]), np.array([1.0, 0.0]), tau=0.05)
        assert float(cosent(batch).data) == pytest.approx(LOG_1P_EXP_M2, abs=1e-9)

    def test_monotone_relabeling_is_bitwise_identical(self):
        rng = np.random.default_rng(3)
        cos = rng.uniform(-1, 1, 8)
        labels = rng.integers(0, 4, 8).astype(float)
        a = cosent(StsBatch(Tensor(cos), labels, tau=0.07)).data
        b = cosent(StsBatch(Tensor(cos), labels * 10.0 + 3.0, tau=0.07)).data
        c = cosent(StsBatch(Tensor(cos), np.exp(labels), tau=0.07)).data
        assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            StsBatch(Tensor([0.1, 0.2]), np.array([1.0, 0.0]), tau=-1.0)

    def test_satisfied_pairs_score_above_zero(self):
        # total = exp(-40): log(1 + total) rounds to 0, log1p keeps it
        val = float(cosent(StsBatch(Tensor([-1.0, 1.0]), np.array([0.0, 1.0]))).data)
        assert val == pytest.approx(math.exp(-40.0), rel=1e-12)
        assert val > 0.0

    def test_gradient_equal_to_log_of_one_plus_chain(self):
        # the log1p step's backward is g / (x + 1), the gradient log(1 + x) gave, bit for bit
        rng = np.random.default_rng(8)
        cos, labels = rng.uniform(-1, 1, 7), rng.integers(0, 3, 7).astype(float)
        hi, lo = np.where(labels[:, None] > labels[None, :])
        t = Tensor(cos, requires_grad=True)
        ag.backward(cosent(StsBatch(t, labels, tau=0.05)))
        ref = Tensor(cos, requires_grad=True)
        diffs = ag.sub(ag.index_select(ref, 0, lo), ag.index_select(ref, 0, hi))
        ag.backward(_log(ag.add(ag.tensor_sum(_exp(ag.mul(diffs, 1.0 / 0.05))), 1.0)))
        assert t.grad.tobytes() == ref.grad.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=6),
           st.lists(st.integers(0, 3), min_size=2, max_size=6))
    def test_nonnegative_and_zero_iff_no_ordered_pairs(self, cos, labels):
        n = min(len(cos), len(labels))
        cos, labels = cos[:n], np.array(labels[:n], dtype=float)
        val = float(cosent(StsBatch(Tensor(np.array(cos)), labels)).data)
        has_ordered = bool((labels[:, None] > labels[None, :]).any())
        assert val >= 0.0
        assert (val == 0.0) == (not has_ordered)


class TestNextTokenCe:
    def test_uniform_logits_log_vocab(self):
        loss = next_token_ce(Tensor(np.zeros((3, 512))), np.array([1, 2, 3]))
        assert float(loss.data) == pytest.approx(math.log(512.0), abs=1e-9)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        targets = np.array([0, 1])
        prev = None
        for margin in (5.0, 20.0, 60.0):
            logits = np.zeros((2, 4))
            logits[np.arange(2), targets] = margin
            val = float(next_token_ce(Tensor(logits), targets).data)
            if prev is not None:
                assert val < prev
            prev = val
        assert prev < 1e-9

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            next_token_ce(Tensor(np.zeros((2, 4))), np.array([0, 4]))


GRAD_SEEDS = list(range(50))


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_info_nce_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    pos = _unit(rng.normal(size=(4, 8)))
    neg = _unit(rng.normal(size=(4, 3, 8)))
    raw = rng.normal(size=(4, 8))

    def f(t):
        return info_nce(ContrastiveBatch(ag.l2_normalize(t), Tensor(pos), Tensor(neg),
                                         temperature=0.5))

    assert grad_check(f, raw, h=1e-6) < 1e-4


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_cosent_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    cos = rng.uniform(-0.9, 0.9, 6)
    labels = rng.integers(0, 3, 6).astype(float)
    assert grad_check(lambda t: cosent(StsBatch(t, labels, tau=0.05)), cos, h=1e-6) < 1e-4


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_next_token_ce_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(4, 8))
    targets = rng.integers(0, 8, 4)
    assert grad_check(lambda t: next_token_ce(t, targets), logits, h=1e-6) < 1e-6
