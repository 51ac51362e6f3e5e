"""Kernel-level checks for the reverse-mode engine: hand values, finite
differences on every kernel, and the error contract."""

import numpy as np
import pytest

from embedkit import autograd as ag
from embedkit.autograd import DomainError, ShapeMismatchError, Tensor, backward, grad_check
from embedkit.masks import ScheduleState, bidirectional_mask, build_soft_mask, causal_mask

KERNEL_SEEDS = list(range(50))


def _cosine(u, v):
    """Cosine of two vectors as the losses compute it: a dot product of unit vectors."""
    return ag.sum_lastdim(ag.mul(ag.l2_normalize(u), ag.l2_normalize(v)))


class TestForwardValues:
    def test_matmul_ones(self):
        out = ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))

    def test_softmax_uniform(self):
        out = ag.softmax_lastdim(Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_cosine_orthogonal(self):
        out = _cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
        assert out.item() == 0.0

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = ag.softmax_lastdim(Tensor(rng.normal(size=(5, 7)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(4)
        out = ag.l2_normalize(Tensor(rng.normal(size=(6, 9))))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-12)

    def test_forward_deterministic_bitwise(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        r1 = ag.softmax_lastdim(ag.matmul(Tensor(a), Tensor(b))).data
        r2 = ag.softmax_lastdim(ag.matmul(Tensor(a), Tensor(b))).data
        assert r1.tobytes() == r2.tobytes()


class TestBackwardValues:
    def test_square_sum(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(ag.tensor_sum(ag.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_cosine_grad_vanishes_at_identical_vectors(self):
        # d cos(u, v) / du is the component of v orthogonal to u: zero at u = v
        u = Tensor([1.0, 0.0], requires_grad=True)
        backward(_cosine(u, Tensor([1.0, 0.0])))
        np.testing.assert_array_equal(u.grad, [0.0, 0.0])

    def test_chained_matmul_softmax_log(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(5, 4))

        def f(t):
            return ag.tensor_sum(_log(ag.softmax_lastdim(ag.matmul(t, Tensor(w)))))

        assert grad_check(f, rng.normal(size=(3, 5)), h=1e-6) < 1e-6

    def test_grad_accumulates_over_reuse(self):
        x = Tensor([3.0], requires_grad=True)
        backward(ag.tensor_sum(ag.add(ag.mul(x, x), x)))
        np.testing.assert_allclose(x.grad, [7.0])


def _unary_cases():
    return {
        "relu": lambda t: ag.tensor_sum(ag.mul(ag.relu(t), t)),
        "softmax": lambda t: ag.tensor_sum(ag.mul(ag.softmax_lastdim(t), t)),
        "l2_normalize": lambda t: ag.tensor_sum(ag.mul(ag.l2_normalize(t), t)),
        "sum_lastdim": lambda t: ag.tensor_sum(ag.mul(ag.sum_lastdim(t, keepdims=True), t)),
        "reshape_permute": lambda t: ag.tensor_sum(
            ag.mul(ag.reshape(ag.permute(t, (1, 0)), (2, 6)), np.arange(12.0).reshape(2, 6))),
        # constant operands: scalars, a suffix row and a trailing column, on either side
        "const_operands": lambda t: ag.tensor_sum(ag.mul(
            ag.add(np.arange(3.0), ag.mul(-2.0, ag.add(t, 1.5))), np.linspace(1.0, 2.0, 4)[:, None])),
        "sub_neg": lambda t: ag.tensor_sum(ag.mul(ag.sub(1.5, -t), ag.sub(t, np.arange(3.0)))),
    }


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_kernels_match_finite_differences(seed):
    """Every kernel's analytic gradient agrees with central differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 3))
    for name, f in _unary_cases().items():
        err = grad_check(f, x, h=1e-6)
        assert err < 1e-4, f"{name} gradient off by {err} at seed {seed}"
    b = rng.normal(size=(3, 5))
    assert grad_check(lambda t: ag.tensor_sum(ag.matmul(t, Tensor(b))), x, h=1e-6) < 1e-4
    c = rng.normal(size=(4, 3))
    for name, f2 in {
        "add": lambda t: ag.tensor_sum(ag.mul(ag.add(t, Tensor(c)), t)),
        "mul": lambda t: ag.tensor_sum(ag.mul(t, Tensor(c))),
        "div": lambda t: ag.tensor_sum(ag.div(t, Tensor(np.abs(c) + 1.0))),
    }.items():
        err = grad_check(f2, x, h=1e-6)
        assert err < 1e-4, f"{name} gradient off by {err} at seed {seed}"
    idx = rng.integers(0, 3, size=4)
    assert grad_check(lambda t: ag.mul(ag.cross_entropy_lastdim(t, idx), 3.0),
                      x, h=1e-6) < 1e-4
    sel = rng.integers(0, 4, size=6)
    assert grad_check(lambda t: ag.tensor_sum(ag.mul(ag.index_select(t, 0, sel),
                                                     np.arange(18.0).reshape(6, 3))),
                      x, h=1e-6) < 1e-4


def _composed_attention(q, k, v, weights, heads):
    """The encoder's attention chain before the fused op: heads split by
    reshape/permute, a GQA gather, eight tape nodes, then heads merged by
    permute/reshape.  Constants are broadcast up front to the (B, H, L, L)
    scores, since (B, 1, L, L) is not a pattern the elementwise ops accept."""
    bsz, length, width = q.shape
    dh = width // heads
    kv = k.shape[-1] // dh

    def split(t, n):
        return ag.permute(ag.reshape(t, (bsz, length, n, dh)), (0, 2, 1, 3))

    q, k, v = split(q, heads), split(k, kv), split(v, kv)
    group = np.repeat(np.arange(kv), heads // kv)
    k, v = ag.index_select(k, 1, group), ag.index_select(v, 1, group)
    scores = ag.mul(ag.matmul(q, ag.permute(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    w = np.broadcast_to(weights if weights.ndim == 2 else weights[:, None], scores.shape)
    probs = ag.softmax_lastdim(ag.add(scores, np.where(w > 0.0, 0.0, -np.inf)))
    weighted = ag.mul(probs, w)
    ctx = ag.matmul(ag.div(weighted, ag.sum_lastdim(weighted, keepdims=True)), v)
    return ag.reshape(ag.permute(ctx, (0, 2, 1, 3)), (bsz, length, width))


def _attention_with_multiply(q, k, v, w, heads, g):
    """The fused op as it was before skipping the multiply for 0/1 weights.

    Returns its output and the gradients of ``sum(out * g)`` for q, k, v.
    """
    bsz, length, width = q.shape
    dh = width // heads
    kv = k.shape[-1] // dh
    scale = 1.0 / np.sqrt(dh)

    def split(x, n):
        return x.reshape(bsz, length, n, dh).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(bsz, length, -1)

    qg = split(q, heads).reshape(bsz, kv, heads // kv * length, dh)
    kh, vh = split(k, kv), split(v, kv)
    p = np.matmul(qg, np.swapaxes(kh, -1, -2))
    p5 = p.reshape(bsz, kv, heads // kv, length, length)
    w5 = w if w.ndim == 2 else w[:, None, None]
    p *= scale
    np.copyto(p5, -np.inf, where=w5 == 0.0)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    p5 *= w5
    p /= p.sum(axis=-1, keepdims=True)
    out = merge(np.matmul(p, vh).reshape(bsz, heads, length, dh))
    g = split(g, heads).reshape(bsz, kv, heads // kv * length, dh)
    ds = np.matmul(g, np.swapaxes(vh, -1, -2))
    ds -= (ds * p).sum(axis=-1, keepdims=True)
    ds *= p
    ds *= scale
    return out, (merge(np.matmul(ds, kh).reshape(bsz, heads, length, dh)),
                 merge(np.matmul(np.swapaxes(ds, -1, -2), qg)),
                 merge(np.matmul(np.swapaxes(p, -1, -2), g)))


def _attention_weights(kind, bsz, length):
    if kind == "causal":
        return causal_mask(length).entries
    if kind == "soft":
        return build_soft_mask(ScheduleState("linear", 2, 5), length).entries
    if kind == "bidirectional":
        return bidirectional_mask(length).entries
    # padded: row 1 holds 3 real tokens; its keys past them are zeroed and
    # its pad rows attend to themselves only
    w = np.array(np.broadcast_to(build_soft_mask(ScheduleState("linear", 3, 5), length).entries,
                                 (bsz, length, length)))
    w[1, :, 3:] = 0.0
    w[1, 3:, 3:][np.diag_indices(length - 3)] = 1.0
    return w


ATTENTION_KINDS = ("causal", "soft", "bidirectional", "padded")


def _qkv(rng, bsz, length, heads, kv, dh):
    """Token-major q (B, L, H*dh), k and v (B, L, KV*dh), as the projections make them."""
    return (rng.normal(size=(bsz, length, heads * dh)),
            *rng.normal(size=(2, bsz, length, kv * dh)))


class TestAttention:
    @pytest.mark.parametrize("kind", ATTENTION_KINDS)
    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_matches_finite_differences(self, kind, group):
        rng = np.random.default_rng(group)
        bsz, kv, length, dh = 2, 2, 5, 3
        q, k, v = _qkv(rng, bsz, length, kv * group, kv, dh)
        w = _attention_weights(kind, bsz, length)
        r = rng.normal(size=q.shape)
        args = {"q": q, "k": k, "v": v}
        for name in args:
            def f(t, name=name):
                ops = {n: (t if n == name else Tensor(a)) for n, a in args.items()}
                out = ag.attention(ops["q"], ops["k"], ops["v"], w, kv * group)
                return ag.tensor_sum(ag.mul(out, r))

            err = grad_check(f, args[name], h=1e-6)
            assert err < 1e-8, f"d/d{name} off by {err} ({kind}, group {group})"

    @pytest.mark.parametrize("kind", ATTENTION_KINDS)
    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_forward_bitwise_equal_to_composed_chain(self, kind, group):
        rng = np.random.default_rng(10 + group)
        bsz, kv, length, dh = 3, 2, 7, 4
        heads = kv * group
        qkv = _qkv(rng, bsz, length, heads, kv, dh)
        w = _attention_weights(kind, bsz, length)
        ts = [Tensor(a, requires_grad=True) for a in qkv]
        ref = [Tensor(a, requires_grad=True) for a in qkv]
        fused = ag.attention(*ts, w, heads)
        composed = _composed_attention(*ref, w, heads)
        assert fused.shape == (bsz, length, heads * dh)
        assert fused.data.tobytes() == composed.data.tobytes()
        r = rng.normal(size=fused.shape)
        backward(ag.tensor_sum(ag.mul(fused, r)))
        backward(ag.tensor_sum(ag.mul(composed, r)))
        for t, t_ref in zip(ts, ref):
            assert t.grad.shape == t.shape
            np.testing.assert_allclose(t.grad, t_ref.grad, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("mask", [bidirectional_mask, causal_mask])
    @pytest.mark.parametrize("group", [1, 4])
    def test_binary_weights_skip_multiply_bitwise(self, mask, group):
        # padded 0/1 weights as the encoder builds them: rows 1 and 2 hold 3 and
        # 5 real tokens, their padded keys are zeroed and pad rows self-attend
        rng = np.random.default_rng(30 + group)
        bsz, kv, length, dh = 3, 2, 7, 4
        w = np.array(np.broadcast_to(mask(length).entries, (bsz, length, length)))
        for row, n in ((1, 3), (2, 5)):
            w[row, :, n:] = 0.0
            w[row, n:, n:][np.diag_indices(length - n)] = 1.0
        qkv = _qkv(rng, bsz, length, kv * group, kv, dh)
        ts = [Tensor(a, requires_grad=True) for a in qkv]
        out = ag.attention(*ts, w, kv * group)
        r = rng.normal(size=out.shape)
        backward(ag.tensor_sum(ag.mul(out, r)))
        want, grads = _attention_with_multiply(*qkv, w, kv * group, r)
        assert out.data.tobytes() == want.tobytes()
        for t, g in zip(ts, grads):
            assert t.grad.tobytes() == g.tobytes()

    @pytest.mark.parametrize("length", [1, 2, 7, 24, 64])
    @pytest.mark.parametrize("rows", [1, 96, 8192])
    def test_rowmax_equals_np_max(self, length, rows):
        rng = np.random.default_rng(length)
        x = rng.normal(size=(rows, length)) * 1e3
        x[rng.random(size=x.shape) < 0.3] = -np.inf
        x[0] = -np.inf                                    # a fully masked row
        m = ag._rowmax(x)
        assert m.shape == (rows, 1)
        assert m.tobytes() == np.max(x, axis=-1, keepdims=True).tobytes()

    def test_zero_weight_keys_get_no_probability(self):
        rng = np.random.default_rng(5)
        q, k = rng.normal(size=(2, 1, 4, 2 * 3))
        v = np.zeros((1, 4, 2 * 3))
        v[:, 3] = 1e6  # a key past the causal horizon of every row but the last
        out = ag.attention(Tensor(q), Tensor(k), Tensor(v), causal_mask(4).entries, 2)
        assert np.all(out.data[:, :3] == 0.0)

    def test_shape_errors(self):
        q = Tensor(np.ones((1, 4, 6)))
        kv = Tensor(np.ones((1, 4, 4)))
        with pytest.raises(ShapeMismatchError, match="group"):
            ag.attention(q, kv, kv, np.ones((4, 4)), 3)      # dh 2: 3 query heads over 2
        with pytest.raises(ShapeMismatchError, match="group"):
            ag.attention(q, kv, Tensor(np.ones((1, 4, 6))), np.ones((4, 4)), 3)
        with pytest.raises(ShapeMismatchError, match="group"):
            ag.attention(q, kv, kv, np.ones((4, 4)), 1)      # dh 6: k narrower than one head
        with pytest.raises(ShapeMismatchError, match="split"):
            ag.attention(q, q, q, np.ones((4, 4)), 4)        # width 6 into 4 heads
        with pytest.raises(ShapeMismatchError, match="split"):
            ag.attention(q, q, q, np.ones((4, 4)), 0)
        with pytest.raises(ShapeMismatchError, match="weights"):
            ag.attention(kv, kv, kv, np.ones((3, 3)), 2)
        with pytest.raises(ShapeMismatchError, match="heads"):
            ag.attention(Tensor(np.ones((1, 2, 4, 2))), kv, kv, np.ones((4, 4)), 2)


def test_rmsnorm_matches_finite_differences():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, 3, 6))
    gain = rng.normal(size=6)
    r = rng.normal(size=x.shape)
    assert grad_check(lambda t: ag.tensor_sum(ag.mul(ag.rmsnorm(t, Tensor(gain)), r)), x) < 1e-8
    assert grad_check(lambda t: ag.tensor_sum(ag.mul(ag.rmsnorm(Tensor(x), t), r)), gain) < 1e-8


def test_rmsnorm_bitwise_equal_to_composed_chain():
    rng = np.random.default_rng(22)
    x, gain = Tensor(rng.normal(size=(3, 5, 8))), Tensor(rng.normal(size=8))
    composed = ag.mul(ag.mul(ag.l2_normalize(x), np.sqrt(8)), gain)
    assert ag.rmsnorm(x, gain).data.tobytes() == composed.data.tobytes()
    with pytest.raises(DomainError):
        ag.rmsnorm(Tensor(np.zeros((2, 8))), gain)


def _log(a):
    """The ``log`` node of the reference chains below."""
    def backward_fn(g):
        ag._accumulate(a, g / a.data)

    return ag._make(np.log(a.data), (a,), backward_fn)


def _mean(a):
    """The ``mean`` node of the reference chains below."""
    def backward_fn(g):
        ag._accumulate(a, np.broadcast_to(g / a.size, a.shape))

    return ag._make(np.asarray(a.data.mean()), (a,), backward_fn)


def _exp(a):
    """The ``exp`` node of the reference chains below."""
    out_data = np.exp(a.data)

    def backward_fn(g):
        ag._accumulate(a, g * out_data)

    return ag._make(out_data, (a,), backward_fn)


def _log1p(a):
    """The ``log1p`` node of the reference CoSENT chain."""
    def backward_fn(g):
        ag._accumulate(a, g / (a.data + 1.0))

    return ag._make(np.log1p(a.data), (a,), backward_fn)


def _concat_lastdim(a, b):
    """The ``concat`` node of the reference InfoNCE chain."""
    na = a.shape[-1]

    def backward_fn(g):
        ag._accumulate(a, g[..., :na])
        ag._accumulate(b, g[..., na:])

    return ag._make(np.concatenate([a.data, b.data], axis=-1), (a, b), backward_fn)


def _logsumexp(a):
    """The one-node logsumexp of the reference chains, which replaced ``_composed_logsumexp``."""
    m = np.max(a.data, axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=-1)

    def backward_fn(g):
        ag._accumulate(a, np.expand_dims(g / s, -1) * e)

    return ag._make(np.log(s) + m[..., 0], (a,), backward_fn)


def _composed_logsumexp(x):
    """The five-node chain ``_logsumexp`` replaced, kept as its reference."""
    m = np.max(x.data, axis=-1, keepdims=True)
    shifted = _exp(ag.add(x, -m))
    return ag.add(_log(ag.sum_lastdim(shifted)), m[..., 0])


def _gather_lastdim(a, indices):
    """The pick node of the chain ``cross_entropy_lastdim`` replaced, kept as its reference."""
    idx = np.asarray(indices, dtype=np.intp)
    out_data = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def backward_fn(g):
        buf = np.zeros(a.shape, dtype=np.float64)
        flat = buf.reshape(-1, a.shape[-1])
        flat[np.arange(flat.shape[0]), idx.reshape(-1)] += np.reshape(g, -1)
        ag._accumulate(a, buf)

    return ag._make(out_data, (a,), backward_fn)


def _composed_gather_backward(shape, idx, g):
    """The meshgrid + ``np.add.at`` scatter of the pick's gradient."""
    buf = np.zeros(shape)
    grids = np.meshgrid(*[np.arange(s) for s in idx.shape], indexing="ij")
    np.add.at(buf, (*grids, idx), g)
    return buf


@pytest.mark.parametrize("shape", [(512, 512), (3, 5, 9), (6,), (44, 512), (3, 5)])
def test_cross_entropy_bitwise_equal_to_composed_chain(shape):
    # next_token_ce's graph: logsumexp minus the picked logit, so the logits
    # gather two gradients; loss and gradient must not move in the last bit
    rng = np.random.default_rng(25)
    x = 4.0 * rng.normal(size=shape)
    idx = rng.integers(0, shape[-1], size=shape[:-1])
    for lse in (_logsumexp, _composed_logsumexp):
        out = {}
        for name, f in (("fused", ag.cross_entropy_lastdim),
                        ("chain", lambda t, i: _mean(ag.sub(lse(t), _gather_lastdim(t, i))))):
            t = Tensor(x, requires_grad=True)
            loss = f(t, idx)
            ag.backward(loss)
            out[name] = (loss.data.tobytes(), t.grad.tobytes())
        assert out["fused"] == out["chain"]


def test_cross_entropy_matches_finite_differences():
    rng = np.random.default_rng(27)
    for shape in [(6, 9), (2, 3, 5), (4,)]:
        x = 3.0 * rng.normal(size=shape)
        idx = rng.integers(0, shape[-1], size=shape[:-1])
        assert grad_check(lambda t: ag.cross_entropy_lastdim(t, idx), x) < 1e-8


def test_cross_entropy_backward_equal_to_softmax_minus_scatter():
    # the gradient is the logsumexp gradient plus the pick's scatter of -1/n
    rng = np.random.default_rng(26)
    for shape in [(7, 11), (2, 3, 5), (4,)]:
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        idx = rng.integers(0, shape[-1], size=shape[:-1])
        n = idx.size
        ag.backward(ag.cross_entropy_lastdim(x, idx))
        lse = Tensor(x.data, requires_grad=True)
        ag.backward(_mean(_logsumexp(lse)))
        scatter = _composed_gather_backward(shape, idx, np.full(idx.shape, -(1.0 / n)))
        assert x.grad.tobytes() == (lse.grad + scatter).tobytes()


def test_cross_entropy_rejects_bad_targets():
    x = Tensor(np.zeros((3, 4)), requires_grad=True)
    with pytest.raises(ShapeMismatchError, match=r"\(2,\).*\(3,\)"):
        ag.cross_entropy_lastdim(x, np.zeros(2, dtype=int))
    with pytest.raises(IndexError, match="extent 4"):
        ag.cross_entropy_lastdim(x, np.array([0, 4, 1]))


def _chain_info_nce(q, p, n, temperature):
    """The 14-node InfoNCE chain ``info_nce_loss`` replaced, kept as its reference."""
    bsz, dim = q.shape
    pos = ag.sum_lastdim(ag.mul(q, p))
    cand = ag.matmul(q, ag.permute(p, (1, 0)))
    neg = np.zeros((bsz, 0))
    if n is not None and n.shape[1] > 0:
        neg_t = ag.reshape(ag.matmul(n, ag.reshape(q, (bsz, dim, 1))), (bsz, n.shape[1]))
        cand, neg = _concat_lastdim(cand, neg_t), neg_t.data
    inv_t = 1.0 / temperature
    lse = _logsumexp(ag.mul(cand, inv_t))
    return ag.tensor_sum(ag.sub(lse, ag.mul(pos, inv_t))), pos.data, neg


def _chain_cosent(c, labels, tau):
    """The 8-node CoSENT chain ``cosent_loss`` replaced, kept as its reference."""
    hi, lo = np.where(labels[:, None] > labels[None, :])
    diffs = ag.sub(ag.index_select(c, 0, lo), ag.index_select(c, 0, hi))
    return _log1p(ag.tensor_sum(_exp(ag.mul(diffs, 1.0 / tau))))


def _info_nce_mrl(op, w, xs):
    """Queries, positives and negatives projected by one shared weight ``w``, scored
    at its full width and at half of it and averaged, as the supervised stage does."""
    dim = w.shape[1]
    q, p, n = (ag.l2_normalize(ag.matmul(Tensor(x), w)) for x in xs)
    terms, scores = [], []
    for d in sorted({dim, max(1, dim // 2)}, reverse=True):
        cut = [t if d == dim else ag.l2_normalize(ag.index_select(t, -1, np.arange(d)))
               for t in (q, p, n)]
        loss, pos, neg = op(*cut, 0.05)
        terms.append(loss)
        scores += [pos, neg]
    total = terms[0]
    for term in terms[1:]:
        total = ag.add(total, term)
    return ag.mul(total, 1.0 / len(terms)), scores


def test_info_nce_bitwise_equal_to_chain():
    # three operands through one weight, two widths and an upstream gradient:
    # loss, scores and the weight's gradient must not move in the last bit
    rng = np.random.default_rng(40)
    for _ in range(200):
        bsz, dim, k = rng.integers(1, 9), rng.integers(2, 65), rng.integers(0, 8)
        raw = rng.normal(size=(dim, dim))
        xs = [rng.normal(size=(bsz, dim)), rng.normal(size=(bsz, dim)),
              rng.normal(size=(bsz, k, dim))]
        out = []
        for op in (ag.info_nce_loss, _chain_info_nce):
            w = Tensor(raw, requires_grad=True)
            loss, scores = _info_nce_mrl(op, w, xs)
            backward(ag.mul(loss, 0.37))
            out.append([loss.data.tobytes(), w.grad.tobytes()] + [a.tobytes() for a in scores])
        assert out[0] == out[1], (bsz, dim, k)


@pytest.mark.parametrize("bsz,k", [(4, 0), (4, 3), (1, 0), (1, 5)])
def test_info_nce_matches_finite_differences(bsz, k):
    rng = np.random.default_rng(41 + k)
    args = {"q": rng.normal(size=(bsz, 6)), "p": rng.normal(size=(bsz, 6)),
            "n": rng.normal(size=(bsz, k, 6))}
    for name in args if k else ("q", "p"):
        def f(t, name=name):
            ops = {a: (t if a == name else Tensor(v)) for a, v in args.items()}
            return ag.info_nce_loss(ops["q"], ops["p"], ops["n"], 0.5)[0]

        err = grad_check(f, args[name])
        assert err < 1e-8, f"d/d{name} off by {err} (B {bsz}, K {k})"


def test_cosent_bitwise_equal_to_chain():
    rng = np.random.default_rng(42)
    for size in range(2, 40):
        c, labels = rng.uniform(-1, 1, size), rng.integers(0, 4, size).astype(float)
        if not (labels[:, None] > labels[None, :]).any():
            continue
        out = []
        for op in (ag.cosent_loss, _chain_cosent):
            t = Tensor(c, requires_grad=True)
            loss = op(t, labels, 0.05)
            backward(ag.mul(loss, 0.37))
            out.append((loss.data.tobytes(), t.grad.tobytes()))
        assert out[0] == out[1], size


def test_cosent_matches_finite_differences():
    rng = np.random.default_rng(43)
    for size in (2, 5, 9):
        c, labels = rng.uniform(-0.9, 0.9, size), np.arange(size, dtype=float)[::-1]
        assert grad_check(lambda t: ag.cosent_loss(t, labels, 0.2), c) < 1e-8


@pytest.mark.parametrize("axis", [0, -1])
def test_index_select_backward_equal_to_add_at(axis):
    # duplicates, -0.0 and a 2-d index; the bincount sums as np.add.at onto zeros does
    rng = np.random.default_rng(28)
    for shape, idx_shape in [((256, 64), (300,)), ((5, 7, 3), (4, 6)), ((6,), (9,))]:
        dim = shape[axis]
        idx = rng.integers(0, dim, size=idx_shape)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        out = ag.index_select(x, axis, idx)
        g = rng.normal(size=out.shape)
        g.reshape(-1)[::5] = -0.0
        backward(ag.tensor_sum(ag.mul(out, g)))
        buf = np.zeros(shape)
        ax = axis % len(shape)
        np.add.at(np.moveaxis(buf, ax, 0), idx,
                  np.moveaxis(g, tuple(range(ax, ax + idx.ndim)), tuple(range(idx.ndim))))
        assert x.grad.tobytes() == buf.tobytes()


def _reference_backward(loss):
    """``backward`` as it was before it freed the graph: same order, nothing dropped."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if p.requires_grad and id(p) not in seen)
    loss.grad = np.asarray(1.0)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def test_backward_frees_graph_and_keeps_leaf_grads():
    def graph(seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        h = ag.softmax_lastdim(ag.matmul(x, w))
        loss = ag.add(ag.cross_entropy_lastdim(h, np.array([0, 3, 1])), ag.tensor_sum(ag.mul(h, h)))
        return loss, (w, x)

    loss, leaves = graph(29)
    nodes, stack = [], [loss]
    while stack:
        t = stack.pop()
        if all(t is not n for n in nodes):
            nodes.append(t)
            stack.extend(t._parents)
    parents = [n._parents for n in nodes]
    backward(loss)
    ref_loss, ref_leaves = graph(29)
    _reference_backward(ref_loss)
    inner = [n for n in nodes if n._parents]
    assert len(inner) == 6
    assert all(n._backward is None and n.grad is None for n in inner)
    assert [n._parents for n in nodes] == parents
    for leaf, ref in zip(leaves, ref_leaves):
        assert leaf.grad.tobytes() == ref.grad.tobytes()


def test_matmul_batched_input_against_shared_weight():
    # a (B, L, D) input against a (D, F) weight: the weight gradient is one flat GEMM
    rng = np.random.default_rng(23)
    a, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 2))
    r = rng.normal(size=(3, 4, 2))
    assert grad_check(lambda t: ag.tensor_sum(ag.mul(ag.matmul(Tensor(a), t), r)), b) < 1e-8
    assert grad_check(lambda t: ag.tensor_sum(ag.mul(ag.matmul(t, Tensor(b)), r)), a) < 1e-8


def test_broadcast_suffix_and_trailing_expansion():
    a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    bias = Tensor(np.arange(4.0), requires_grad=True)
    backward(ag.tensor_sum(ag.add(a, bias)))
    np.testing.assert_array_equal(bias.grad, np.full(4, 6.0))

    col = Tensor(np.ones((2, 3, 1)), requires_grad=True)
    a2 = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    backward(ag.tensor_sum(ag.mul(a2, col)))
    np.testing.assert_array_equal(col.grad, np.full((2, 3, 1), 4.0))


class TestErrors:
    def test_matmul_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 2\)"):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_elementwise_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(3, 2\)"):
            ag.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_normalize_zero_vector(self):
        with pytest.raises(DomainError):
            ag.l2_normalize(Tensor([[1.0, 0.0], [0.0, 0.0]]))

    def test_cosine_zero_vector(self):
        with pytest.raises(DomainError):
            _cosine(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(ag.mul(x, x))

    def test_backward_twice_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = ag.tensor_sum(ag.mul(x, x))
        backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            backward(loss)

    def test_backward_through_freed_subgraph_raises(self):
        # the first backward freed the shared node's closure; a second graph
        # through it would silently stop there
        x = Tensor([1.0, 2.0], requires_grad=True)
        shared = ag.mul(x, x)
        backward(ag.tensor_sum(shared))
        with pytest.raises(RuntimeError, match="freed"):
            backward(ag.tensor_sum(ag.mul(shared, 2.0)))

    def test_grad_check_reports_nonfinite_coordinate(self):
        def f(t):
            return ag.tensor_sum(_log(t))

        with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError, match="coordinate 1"):
            grad_check(f, np.array([1.0, 1e-7]), h=1e-6)


class TestNoGrad:
    def test_ops_record_no_graph(self):
        x = Tensor(np.arange(1.0, 7.0).reshape(2, 3), requires_grad=True)
        with ag.no_grad():
            y = ag.softmax_lastdim(ag.mul(x, x))
        assert not y.requires_grad
        assert y._parents == () and y._backward is None

    def test_flag_restored_after_exception(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with ag.no_grad():
                raise RuntimeError("inside")
        assert ag.mul(x, x).requires_grad

    def test_nested_use_restores_outer_setting(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ag.no_grad():
            with ag.no_grad():
                assert not ag.mul(x, x).requires_grad
            assert not ag.mul(x, x).requires_grad
        out = ag.tensor_sum(ag.mul(x, x))
        backward(out)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_grad_check_linear_function_is_exact():
    # fd of a linear function is h-independent; a large step avoids cancellation noise
    for seed in range(5):
        x = np.random.default_rng(seed).normal(size=(3, 3))
        assert grad_check(ag.tensor_sum, x, h=0.25) < 1e-12
