"""Hand-derived loss values, structural invariances, and finite-difference
gradient checks for the three objectives."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedkit import autograd as ag
from embedkit.autograd import Tensor, grad_check
from embedkit.losses import cosent, info_nce_with_scores, next_token_ce
from test_autograd import _reshape

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


def _passages(p, n):
    """The (B·(1+K), D) passage batch of (B, D) positives and (B, K, D) negatives."""
    p = np.asarray(p, dtype=np.float64)
    return np.concatenate([p, np.asarray(n, dtype=np.float64).reshape(-1, p.shape[-1])])


def _nce(q, p, n, temperature):
    """The fused InfoNCE loss of plain arrays, which need not be unit vectors."""
    return float(ag.info_nce_loss(Tensor(q), Tensor(_passages(p, n)), temperature)[0].data)


class TestInfoNceValues:
    def test_single_pair_with_antipodal_negative(self):
        loss, _, _ = info_nce_with_scores(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0], [-1.0, 0.0]]),
                                          temperature=1.0)
        assert float(loss.data) == pytest.approx(LOG_1P_EXP_M2, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_uniform_candidates_give_log_m(self, m):
        # one query, m candidates all at the same cosine
        cand = np.tile([[0.0, 1.0]], (m - 1, 1))[None, :, :]
        loss, _, _ = info_nce_with_scores(Tensor([[1.0, 0.0]]),
                                          Tensor(_passages([[0.0, 1.0]], cand)), temperature=1.0)
        assert float(loss.data) == pytest.approx(math.log(m), abs=1e-9)

    def test_single_pair_no_negatives_is_zero(self):
        loss, _, _ = info_nce_with_scores(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]), temperature=0.05)
        assert float(loss.data) == 0.0

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = _unit(rng.normal(size=(5, 6)))
            p = _unit(rng.normal(size=(5, 6)))
            n = _unit(rng.normal(size=(5, 3, 6)))
            val = float(info_nce_with_scores(Tensor(q), Tensor(_passages(p, n)))[0].data)
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
        _, pos, neg = info_nce_with_scores(Tensor(q), Tensor(_passages(p, n)))
        np.testing.assert_allclose(pos, (q * p).sum(-1), atol=1e-12)
        np.testing.assert_allclose(neg, np.einsum("bkd,bd->bk", n, q), atol=1e-12)

    def test_unnormalized_inputs_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            info_nce_with_scores(Tensor([[2.0, 0.0]]), Tensor([[1.0, 0.0]]))

    def test_nan_embeddings_rejected(self):
        with pytest.raises(ValueError, match="query embeddings must be L2-normalized"):
            info_nce_with_scores(Tensor([[np.nan, 0.0]]), Tensor([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="passage embeddings must be L2-normalized"):
            info_nce_with_scores(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0], [0.0, 1.0], [np.nan, np.nan]]))

    @pytest.mark.parametrize("rows,width", [(5, 2), (1, 2), (4, 3)],
                             ids=["rows-not-multiple-of-B", "fewer-rows-than-B", "width"])
    def test_passages_not_in_layout_rejected(self, rows, width):
        # B = 2 queries take 2·(1+K) passages of their width
        passages = np.tile(np.eye(width)[:1], (rows, 1))
        with pytest.raises(ValueError, match=r"passages shape .* is not \(B·\(1\+K\), D\)"):
            info_nce_with_scores(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor(passages))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            info_nce_with_scores(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))))

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            info_nce_with_scores(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0]]), temperature=0.0)


class TestCosentValues:
    def test_all_labels_equal_is_zero(self):
        assert float(cosent(Tensor([0.3, -0.2, 0.9]), np.array([1.0, 1.0, 1.0])).data) == 0.0

    def test_single_pair_is_zero(self):
        assert float(cosent(Tensor([0.5]), np.array([2.0])).data) == 0.0

    @pytest.mark.parametrize("tau", [0.02, 0.05, 1.0])
    def test_equal_cosines_ordered_labels_give_log2(self, tau):
        loss = cosent(Tensor([0.4, 0.4]), np.array([1.0, 0.0]), tau=tau)
        assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_correctly_ordered_gap_of_point1_at_tau_005(self):
        loss = cosent(Tensor([0.9, 0.8]), np.array([1.0, 0.0]), tau=0.05)
        assert float(loss.data) == pytest.approx(LOG_1P_EXP_M2, abs=1e-9)

    def test_monotone_relabeling_is_bitwise_identical(self):
        rng = np.random.default_rng(3)
        cos = rng.uniform(-1, 1, 8)
        labels = rng.integers(0, 4, 8).astype(float)
        a = cosent(Tensor(cos), labels, tau=0.07).data
        b = cosent(Tensor(cos), labels * 10.0 + 3.0, tau=0.07).data
        c = cosent(Tensor(cos), np.exp(labels), tau=0.07).data
        assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            cosent(Tensor([0.1, 0.2]), np.array([1.0, 0.0]), tau=-1.0)

    def test_satisfied_pairs_score_above_zero(self):
        # total = exp(-40): log(1 + total) rounds to 0, log1p keeps it
        val = float(cosent(Tensor([-1.0, 1.0]), np.array([0.0, 1.0])).data)
        assert val == pytest.approx(math.exp(-40.0), rel=1e-12)
        assert val > 0.0

    def test_gradient_equal_to_log_of_one_plus_chain(self):
        # the log1p step's backward is g / (x + 1), the gradient log(1 + x) gave, bit for bit
        rng = np.random.default_rng(8)
        cos, labels = rng.uniform(-1, 1, 7), rng.integers(0, 3, 7).astype(float)
        hi, lo = np.where(labels[:, None] > labels[None, :])
        t = Tensor(cos, requires_grad=True)
        ag.backward(cosent(t, labels, tau=0.05))
        ref = Tensor(cos, requires_grad=True)
        diffs = ag.add(ag.index_select(ref, lo), ag.mul(ag.index_select(ref, hi), -1.0))
        ag.backward(_log(ag.add(ag.sum_lastdim(_exp(ag.mul(diffs, 1.0 / 0.05))), 1.0)))
        assert t.grad.tobytes() == ref.grad.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=6),
           st.lists(st.integers(0, 3), min_size=2, max_size=6))
    def test_nonnegative_and_zero_iff_no_ordered_pairs(self, cos, labels):
        n = min(len(cos), len(labels))
        cos, labels = cos[:n], np.array(labels[:n], dtype=float)
        val = float(cosent(Tensor(np.array(cos)), labels).data)
        has_ordered = bool((labels[:, None] > labels[None, :]).any())
        assert val >= 0.0
        assert (val == 0.0) == (not has_ordered)


# every refusal, with its whole message; each loss checks its inputs before its fused node runs
UNIT = Tensor([[1.0, 0.0]])
TABLE = Tensor(np.zeros((4, 2)))      # a vocab of 4 at width 2
REFUSALS = [
    (info_nce_with_scores, (UNIT, UNIT, 0.0), "temperature must be positive"),
    (info_nce_with_scores, (Tensor(np.zeros((0, 2))), Tensor(np.zeros((0, 2)))),
     "queries must be a non-empty (B, D) matrix, got (0, 2)"),
    (info_nce_with_scores, (Tensor([1.0, 0.0]), UNIT),
     "queries must be a non-empty (B, D) matrix, got (2,)"),
    (info_nce_with_scores, (UNIT, Tensor([[1.0, 0.0, 0.0]])),
     "passages shape (1, 3) is not (B·(1+K), D) for queries (1, 2)"),
    (info_nce_with_scores, (Tensor([[2.0, 0.0]]), UNIT),
     "query embeddings must be L2-normalized (worst norm 2.0)"),
    (info_nce_with_scores, (UNIT, Tensor([[1.0, 0.0], [0.0, 0.5]])),
     "passage embeddings must be L2-normalized (worst norm 0.5)"),
    (cosent, (Tensor([0.1, 0.2]), [1.0, 0.0], 0.0), "tau must be positive"),
    (cosent, (Tensor(np.zeros(0)), []), "cosines must be a non-empty vector, got shape (0,)"),
    (cosent, (Tensor([[0.1, 0.2]]), [[1.0, 0.0]]),
     "cosines must be a non-empty vector, got shape (1, 2)"),
    (cosent, (Tensor([0.1, 0.2]), [1.0, 0.0, 2.0]), "labels shape (3,) does not match cosines (2,)"),
    # a NaN label compares false both ways, so its pairs would drop out of the sum
    (cosent, (Tensor([0.1, 0.2]), [1.0, np.nan]), "labels must be finite, got nan"),
    (cosent, (Tensor([0.1, 0.2]), [-np.inf, 0.0]), "labels must be finite, got -inf"),
    (cosent, (Tensor([0.1, 1.5]), [1.0, 0.0]), "cosines must lie in [-1, 1]"),
    (cosent, (Tensor([0.1, np.nan]), [1.0, 0.0]), "cosines must lie in [-1, 1]"),
    (next_token_ce, (Tensor(np.zeros(2)), TABLE, np.zeros((), dtype=int)),
     "states must be (..., positions, width), got (2,)"),
    (next_token_ce, (Tensor(np.zeros((3, 2))), TABLE, np.zeros(2, dtype=int)),
     "targets shape (2,) does not match positions (3,)"),
    (next_token_ce, (Tensor(np.zeros((3, 2))), TABLE, np.array([0, 4, 1])),
     "target id out of range for vocab 4"),
    (next_token_ce, (Tensor(np.zeros((3, 2))), TABLE, np.array([0, -1, 1])),
     "target id out of range for vocab 4"),
    (next_token_ce, (Tensor(np.zeros((3, 2))), Tensor(np.zeros(8)), np.zeros(3, dtype=int)),
     "table shape (8,) is not (vocab, 2) for states (3, 2)"),
    (next_token_ce, (Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 4))), np.zeros(3, dtype=int)),
     "table shape (2, 4) is not (vocab, 2) for states (3, 2)"),
    (next_token_ce, (Tensor(np.zeros((3, 2))), Tensor(np.zeros((1, 4, 2))), np.zeros(3, dtype=int)),
     "table shape (1, 4, 2) is not (vocab, 2) for states (3, 2)"),
]


REFUSAL_IDS = ["nce-temperature", "nce-empty", "nce-1d", "nce-layout", "nce-query-norm",
               "nce-passage-norm", "cosent-tau", "cosent-empty", "cosent-2d", "cosent-labels-shape",
               "cosent-labels-nan", "cosent-labels-inf", "cosent-range", "cosent-nan-cosine", "ce-logits-1d", "ce-targets-shape",
               "ce-target-high", "ce-target-negative", "ce-table-1d", "ce-table-width",
               "ce-table-3d"]


@pytest.mark.parametrize("loss,args,message", REFUSALS, ids=REFUSAL_IDS)
def test_refusal_message(loss, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        loss(*args)


class TestNextTokenCe:
    def test_uniform_logits_log_vocab(self):
        table = np.random.default_rng(4).normal(size=(512, 8))
        loss = next_token_ce(Tensor(np.zeros((3, 8))), table, np.array([1, 2, 3]))
        assert float(loss.data) == pytest.approx(math.log(512.0), abs=1e-9)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        # an identity table: the logits are the states
        targets = np.array([0, 1])
        prev = None
        for margin in (5.0, 20.0, 60.0):
            logits = np.zeros((2, 4))
            logits[np.arange(2), targets] = margin
            val = float(next_token_ce(Tensor(logits), np.eye(4), targets).data)
            if prev is not None:
                assert val < prev
            prev = val
        assert prev < 1e-9

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            next_token_ce(Tensor(np.zeros((2, 3))), np.zeros((4, 3)), np.array([0, 4]))

    def test_targets_must_match_leading_shape(self):
        with pytest.raises(ValueError, match="does not match"):
            next_token_ce(Tensor(np.zeros((2, 3, 4))), np.zeros((5, 4)), np.zeros(6, dtype=int))
        with pytest.raises(ValueError, match="width"):
            next_token_ce(Tensor(np.zeros(4)), np.zeros((5, 4)), np.zeros((), dtype=int))

    @pytest.mark.parametrize("shape", [(32, 16, 512), (4, 11, 512), (3, 5, 7)])
    def test_batched_logits_bitwise_equal_to_flattened_call(self, shape):
        # (B, L, D) states against the (B*L, D) flattened ones: the logits are one flat
        # GEMM either way, so the loss and the table's gradient keep their bytes; the
        # states' gradient is a GEMM per leading block, as the stacked logits matmul's was
        rng = np.random.default_rng(9)
        x = 4.0 * rng.normal(size=shape[:-1] + (16,))
        table0 = rng.normal(size=(shape[-1], 16))
        targets = rng.integers(0, shape[-1], size=shape[:-1])
        out = {}
        for name, f in (("batched", lambda s, t: next_token_ce(s, t, targets)),
                        ("flat", lambda s, t: next_token_ce(_reshape(s, (-1, 16)), t,
                                                            targets.reshape(-1)))):
            s, t = Tensor(x, requires_grad=True), Tensor(table0, requires_grad=True)
            loss = f(s, t)
            ag.backward(ag.mul(loss, 0.37))
            out[name] = (loss.data.tobytes(), t.grad.tobytes(), s.grad)
        assert out["batched"][:2] == out["flat"][:2]
        np.testing.assert_allclose(out["batched"][2], out["flat"][2], rtol=1e-12, atol=1e-15)


GRAD_SEEDS = list(range(50))


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_info_nce_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    pos = _unit(rng.normal(size=(4, 8)))
    neg = _unit(rng.normal(size=(4, 3, 8)))
    raw = rng.normal(size=(4, 8))

    def f(t):
        return info_nce_with_scores(ag.l2_normalize(t), Tensor(_passages(pos, neg)),
                                    temperature=0.5)[0]

    assert grad_check(f, raw, h=1e-6) < 1e-4


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_info_nce_passage_gradient_matches_finite_differences(seed):
    # the passage batch's gradient, positives and negatives alike, with the queries constant
    rng = np.random.default_rng(seed)
    queries = _unit(rng.normal(size=(4, 8)))
    raw = rng.normal(size=(4 + 4 * 3, 8))

    def f(t):
        return info_nce_with_scores(Tensor(queries), ag.l2_normalize(t), temperature=0.5)[0]

    assert grad_check(f, raw, h=1e-6) < 1e-4


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_cosent_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    cos = rng.uniform(-0.9, 0.9, 6)
    labels = rng.integers(0, 3, 6).astype(float)
    assert grad_check(lambda t: cosent(t, labels, tau=0.05), cos, h=1e-6) < 1e-4


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_next_token_ce_gradient_matches_finite_differences(seed):
    # both inputs of the lm head: the states, and the tied table
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(4, 6))
    table = rng.normal(size=(8, 6))
    targets = rng.integers(0, 8, 4)
    assert grad_check(lambda t: next_token_ce(t, Tensor(table), targets), states, h=1e-6) < 1e-6
    assert grad_check(lambda t: next_token_ce(Tensor(states), t, targets), table, h=1e-6) < 1e-6
