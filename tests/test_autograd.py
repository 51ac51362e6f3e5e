"""Kernel-level checks for the reverse-mode engine: hand values, finite
differences on every kernel, and the error contract."""

import numpy as np
import pytest

from embedkit import autograd as ag
from embedkit.autograd import DomainError, ShapeMismatchError, Tensor, backward, grad_check
from embedkit.masks import build_soft_mask

KERNEL_SEEDS = list(range(50))


def _cosine(u, v):
    """Cosine of two vectors as the losses compute it: a dot product of unit vectors."""
    return ag.sum_lastdim(ag.mul(ag.l2_normalize(u), ag.l2_normalize(v)))


def _sum(a):
    """A whole-array sum node: the scalar loss that ``backward`` and ``grad_check`` take."""
    def backward_fn(g):
        ag._accumulate(a, np.broadcast_to(g, a.shape))

    return ag._make(np.asarray(a.data.sum()), (a,), backward_fn)


def _sub(a, b):
    """``a - b`` in a reference chain, as ``add`` and ``mul`` build it."""
    return ag.add(a, ag.mul(b, -1.0))


def _reshape(a, shape):
    """The ``reshape`` node of the reference chains (it left ``autograd`` with its last caller)."""
    def backward_fn(g):
        ag._accumulate(a, g.reshape(a.shape))

    return ag._make(a.data.reshape(shape), (a,), backward_fn)


def _permute(a, axes):
    """The ``permute`` node of the reference chains (it left ``autograd`` with its last caller)."""
    inv = tuple(np.argsort(axes))

    def backward_fn(g):
        ag._accumulate(a, np.transpose(g, inv))

    return ag._make(np.transpose(a.data, axes), (a,), backward_fn)


def _gather(a, axis, indices):
    """``index_select`` along any axis, as it was before it gathered rows only: the
    reference chains gather key/value heads (axis 1) and MRL prefixes (axis -1)."""
    idx = np.asarray(indices, dtype=np.intp)

    def backward_fn(g):
        ax = axis % a.ndim
        rest = a.shape[:ax] + a.shape[ax + 1:]
        width = int(np.prod(rest))
        rows = np.moveaxis(g, range(ax, ax + idx.ndim), range(idx.ndim))  # idx.shape + rest
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        summed = np.bincount(flat, weights=rows.reshape(-1), minlength=a.shape[ax] * width)
        ag._accumulate(a, np.moveaxis(summed.reshape((a.shape[ax],) + rest), 0, ax))

    return ag._make(np.take(a.data, idx, axis=axis), (a,), backward_fn)


def _ulps(got, want):
    """Largest gap between two arrays, in units in the last place of ``want``'s largest magnitude.

    Not per element: attention's ``P @ v`` cancels, and a rounding gap is
    bounded relative to the terms of a sum, not to its result.
    """
    return float(np.max(np.abs(got - want)) / np.spacing(np.max(np.abs(want))))


class TestForwardValues:
    def test_matmul_ones(self):
        out = ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))

    def test_softmax_uniform(self):
        out = ag.softmax_lastdim(Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_cosine_orthogonal(self):
        out = _cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
        assert float(out.data) == 0.0

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
        backward(_sum(ag.mul(x, x)))
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
            return _sum(_log(ag.softmax_lastdim(ag.matmul(t, Tensor(w)))))

        assert grad_check(f, rng.normal(size=(3, 5)), h=1e-6) < 1e-6

    def test_grad_accumulates_over_reuse(self):
        x = Tensor([3.0], requires_grad=True)
        backward(_sum(ag.add(ag.mul(x, x), x)))
        np.testing.assert_allclose(x.grad, [7.0])


def _unary_cases():
    return {
        "relu": lambda t: _sum(ag.mul(ag.relu(t), t)),
        "softmax": lambda t: _sum(ag.mul(ag.softmax_lastdim(t), t)),
        "l2_normalize": lambda t: _sum(ag.mul(ag.l2_normalize(t), t)),
        "sum_lastdim": lambda t: _sum(ag.mul(ag.sum_lastdim(t, keepdims=True), t)),
        "reshape_permute": lambda t: _sum(
            ag.mul(_reshape(_permute(t, (1, 0)), (2, 6)), np.arange(12.0).reshape(2, 6))),
        # constant operands: scalars, a suffix row and a trailing column, on either side
        "const_operands": lambda t: _sum(ag.mul(
            ag.add(np.arange(3.0), ag.mul(-2.0, ag.add(t, 1.5))), np.linspace(1.0, 2.0, 4)[:, None])),
        "sub_neg": lambda t: _sum(ag.mul(_sub(1.5, ag.mul(t, -1.0)), _sub(t, np.arange(3.0)))),
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
    assert grad_check(lambda t: _sum(ag.matmul(t, Tensor(b))), x, h=1e-6) < 1e-4
    c = rng.normal(size=(4, 3))
    for name, f2 in {
        "add": lambda t: _sum(ag.mul(ag.add(t, Tensor(c)), t)),
        "mul": lambda t: _sum(ag.mul(t, Tensor(c))),
    }.items():
        err = grad_check(f2, x, h=1e-6)
        assert err < 1e-4, f"{name} gradient off by {err} at seed {seed}"
    idx = rng.integers(0, 3, size=4)
    assert grad_check(lambda t: ag.mul(ag.lm_head_ce(t, Tensor(b.T), idx), 3.0),
                      x, h=1e-6) < 1e-4
    assert grad_check(lambda t: ag.mul(ag.lm_head_ce(Tensor(x), t, idx), 3.0),
                      b.T, h=1e-6) < 1e-4
    sel = rng.integers(0, 4, size=6)
    assert grad_check(lambda t: _sum(ag.mul(ag.index_select(t, sel),
                                            np.arange(18.0).reshape(6, 3))),
                      x, h=1e-6) < 1e-4
    width = int(rng.integers(1, 4))
    assert grad_check(lambda t: _sum(ag.mul(ag.l2_normalize(t, width), c[:, :width])),
                      x, h=1e-6) < 1e-4
    rows, scale = rng.integers(0, 2, size=(2, 4)), rng.uniform(0.1, 1.0, size=2)
    assert grad_check(lambda t: _sum(ag.mul(ag.pool(t, rows, scale), c[:2])),
                      rng.normal(size=(2, 4, 3)), h=1e-6) < 1e-4


def _composed_attention(q, k, v, weights, heads):
    """The encoder's attention chain before the fused op: heads split by
    reshape/permute, a GQA gather, eight tape nodes, then heads merged by
    permute/reshape.  Constants are broadcast up front to the (B, H, L, L)
    scores, since (B, 1, L, L) is not a pattern the elementwise ops accept."""
    bsz, length, width = q.shape
    dh = width // heads
    kv = k.shape[-1] // dh

    def split(t, n):
        return _permute(_reshape(t, (bsz, length, n, dh)), (0, 2, 1, 3))

    q, k, v = split(q, heads), split(k, kv), split(v, kv)
    group = np.repeat(np.arange(kv), heads // kv)
    k, v = _gather(k, 1, group), _gather(v, 1, group)
    scores = ag.mul(ag.matmul(q, _permute(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    w = np.broadcast_to(weights if weights.ndim == 2 else weights[:, None], scores.shape)
    probs = ag.softmax_lastdim(ag.add(scores, np.where(w > 0.0, 0.0, -np.inf)))
    weighted = ag.mul(probs, w)
    ctx = ag.matmul(_div(weighted, ag.sum_lastdim(weighted, keepdims=True)), v)
    return _reshape(_permute(ctx, (0, 2, 1, 3)), (bsz, length, width))


def _div(a, b):
    """The ``div`` node of the composed attention chain."""
    def backward_fn(g):
        ag._accumulate(a, ag._unbroadcast(g / b.data, a.shape))
        ag._accumulate(b, ag._unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return ag._make(a.data / b.data, (a, b), backward_fn)


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
        return build_soft_mask(length, 0.0)
    if kind == "soft":
        return build_soft_mask(length, 0.4)
    if kind == "bidirectional":
        return build_soft_mask(length, 1.0)
    # padded: row 1 holds 3 real tokens; its keys past them are zeroed and
    # its pad rows attend to themselves only
    w = np.array(np.broadcast_to(build_soft_mask(length, 0.6),
                                 (bsz, length, length)))
    w[1, :, 3:] = 0.0
    w[1, 3:, 3:][np.diag_indices(length - 3)] = 1.0
    return w


ATTENTION_KINDS = ("causal", "soft", "bidirectional", "padded")
ATTENTION_ULPS = 3  # the fused forward against numpy reference chains


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
                return _sum(ag.mul(out, r))

            err = grad_check(f, args[name], h=1e-6)
            assert err < 1e-8, f"d/d{name} off by {err} ({kind}, group {group})"

    @pytest.mark.parametrize("kind", ATTENTION_KINDS)
    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_forward_bitwise_equal_to_composed_chain(self, kind, group):
        """Within ATTENTION_ULPS of the chain, gradients to rtol 1e-12; the name predates the ulp bound."""
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
        # one reciprocal and einsum's row order in place of the chain's divisions and np.sum
        assert _ulps(fused.data, composed.data) <= ATTENTION_ULPS
        r = rng.normal(size=fused.shape)
        backward(_sum(ag.mul(fused, r)))
        backward(_sum(ag.mul(composed, r)))
        for t, t_ref in zip(ts, ref):
            assert t.grad.shape == t.shape
            np.testing.assert_allclose(t.grad, t_ref.grad, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("alpha", [1.0, 0.0], ids=["bidirectional", "causal"])
    @pytest.mark.parametrize("group", [1, 4])
    def test_binary_weights_skip_multiply_bitwise(self, alpha, group):
        """Within ATTENTION_ULPS of the multiplying chain, gradients to rtol 1e-12; the name predates the ulp bound."""
        # padded 0/1 weights as the encoder builds them: rows 1 and 2 hold 3 and
        # 5 real tokens, their padded keys are zeroed and pad rows self-attend
        rng = np.random.default_rng(30 + group)
        bsz, kv, length, dh = 3, 2, 7, 4
        w = np.array(np.broadcast_to(build_soft_mask(length, alpha), (bsz, length, length)))
        for row, n in ((1, 3), (2, 5)):
            w[row, :, n:] = 0.0
            w[row, n:, n:][np.diag_indices(length - n)] = 1.0
        qkv = _qkv(rng, bsz, length, kv * group, kv, dh)
        ts = [Tensor(a, requires_grad=True) for a in qkv]
        out = ag.attention(*ts, w, kv * group)
        r = rng.normal(size=out.shape)
        backward(_sum(ag.mul(out, r)))
        want, grads = _attention_with_multiply(*qkv, w, kv * group, r)
        assert _ulps(out.data, want) <= ATTENTION_ULPS
        for t, g in zip(ts, grads):
            np.testing.assert_allclose(t.grad, g, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("length", [1, 2, 7, 8, 24, 64])
    @pytest.mark.parametrize("rows", [1, 96, 8192])
    def test_rowmax_equals_np_max(self, length, rows):
        rng = np.random.default_rng(length)
        x = rng.normal(size=(rows, length)) * 1e3
        x[rng.random(size=x.shape) < 0.3] = -np.inf
        x[0] = -np.inf                                    # a fully masked row
        m = ag._rowmax(x)
        assert m.shape == (rows, 1)
        assert m.tobytes() == np.max(x, axis=-1, keepdims=True).tobytes()

    @pytest.mark.parametrize("kind", ATTENTION_KINDS)
    def test_no_grad_forward_bitwise_equal_to_tracked(self, kind):
        rng = np.random.default_rng(50)
        bsz, kv, heads, dh, length = 32, 2, 8, 4, 8
        qkv = _qkv(rng, bsz, length, heads, kv, dh)
        w = _attention_weights(kind, bsz, length)
        tracked = ag.attention(*(Tensor(a, requires_grad=True) for a in qkv), w, heads)
        with ag.no_grad():
            untracked = ag.attention(*(Tensor(a, requires_grad=True) for a in qkv), w, heads)
        assert tracked.requires_grad and not untracked.requires_grad
        assert untracked.data.tobytes() == tracked.data.tobytes()

    def test_zero_weight_keys_get_no_probability(self):
        rng = np.random.default_rng(5)
        q, k = rng.normal(size=(2, 1, 4, 2 * 3))
        v = np.zeros((1, 4, 2 * 3))
        v[:, 3] = 1e6  # a key past the causal horizon of every row but the last
        out = ag.attention(Tensor(q), Tensor(k), Tensor(v), build_soft_mask(4, 0.0), 2)
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
    assert grad_check(lambda t: _sum(ag.mul(ag.rmsnorm(t, Tensor(gain)), r)), x) < 1e-8
    assert grad_check(lambda t: _sum(ag.mul(ag.rmsnorm(Tensor(x), t), r)), gain) < 1e-8


def test_rmsnorm_gain_with_more_leading_axes_gives_x_its_own_shape():
    # the suffix rule lets gain (2, 3, 5) meet x (3, 5); x's gradient sums the extra axis, as mul's does
    rng = np.random.default_rng(23)
    x, gain = rng.normal(size=(3, 5)), rng.normal(size=(2, 3, 5))
    r = rng.normal(size=gain.shape)
    t = Tensor(x, requires_grad=True)
    backward(_sum(ag.mul(ag.rmsnorm(t, Tensor(gain)), r)))
    assert t.grad.shape == x.shape
    assert grad_check(lambda t: _sum(ag.mul(ag.rmsnorm(t, Tensor(gain)), r)), x) < 1e-8
    assert grad_check(lambda t: _sum(ag.mul(ag.rmsnorm(Tensor(x), t), r)), gain) < 1e-8


def test_rmsnorm_bitwise_equal_to_composed_chain():
    """Within 2 ulp of the l2_normalize chain; the name predates the ulp bound."""
    rng = np.random.default_rng(22)
    x, gain = Tensor(rng.normal(size=(3, 5, 8))), Tensor(rng.normal(size=8))
    composed = ag.mul(ag.mul(ag.l2_normalize(x), np.sqrt(8)), gain)
    # a reciprocal norm, einsum's row order and (sqrt(D) * gain) in place of the chain's order
    assert _ulps(ag.rmsnorm(x, gain).data, composed.data) <= 2
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
    """The pick node of the cross-entropy chain ``lm_head_ce`` replaced, kept as its reference."""
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
    # the lm head's cross-entropy against logsumexp minus the picked logit: under an
    # identity table the logits are the states exactly (each x plus exact zeros), so
    # they gather two gradients; loss and gradient must not move in the last bit
    rng = np.random.default_rng(25)
    x = 4.0 * rng.normal(size=shape)
    idx = rng.integers(0, shape[-1], size=shape[:-1])
    eye = Tensor(np.eye(shape[-1]))
    for lse in (_logsumexp, _composed_logsumexp):
        out = {}
        for name, f in (("fused", lambda t, i: ag.lm_head_ce(t, eye, i)),
                        ("chain", lambda t, i: _mean(_sub(lse(t), _gather_lastdim(t, i))))):
            t = Tensor(x, requires_grad=True)
            loss = f(t, idx)
            ag.backward(loss)
            out[name] = (loss.data.tobytes(), t.grad.tobytes())
        assert out["fused"] == out["chain"]


def _chain_lm_head(states, table, targets):
    """The lm head ``lm_head_ce`` replaced: a stacked matmul on the permuted table,
    then the cross-entropy as logsumexp minus the picked logit, averaged."""
    logits = ag.matmul(states, _permute(table, (1, 0)))
    return _mean(_sub(_logsumexp(logits), _gather_lastdim(logits, targets)))


@pytest.mark.parametrize("bsz,length,dim,vocab", [(32, 16, 64, 512), (3, 5, 7, 11)])
def test_lm_head_bitwise_equal_to_stacked_chain(bsz, length, dim, vocab):
    # loss and both gradients, with the table also feeding the states through a row
    # gather as the tied embedding does: the head's gradient reaches it first
    rng = np.random.default_rng(31)
    table0 = rng.normal(size=(vocab, dim))
    ids = rng.integers(0, vocab, size=(bsz, length))
    targets = rng.integers(0, vocab, size=(bsz, length))
    mix = rng.normal(size=(bsz, length, dim))
    out = {}
    for name, head in (("fused", ag.lm_head_ce), ("chain", _chain_lm_head)):
        table = Tensor(table0, requires_grad=True)
        gathered = ag.index_select(table, ids)
        states = ag.add(gathered, mix)
        loss = head(states, table, targets)
        ag.backward(ag.mul(loss, 0.37))
        out[name] = loss.data, table.grad
        direct = Tensor(states.data, requires_grad=True)
        ag.backward(head(direct, Tensor(table0), targets))
        out[name] += (direct.grad,)
    for got, want in zip(out["fused"], out["chain"]):
        assert np.array_equal(got, want)


def test_cross_entropy_matches_finite_differences():
    # the lm head's gradients of both inputs, (..., 4) states and a (V, 4) table
    rng = np.random.default_rng(27)
    for shape in [(6, 9), (2, 3, 5), (4,)]:
        states = 3.0 * rng.normal(size=shape[:-1] + (4,))
        table = rng.normal(size=(shape[-1], 4))
        idx = rng.integers(0, shape[-1], size=shape[:-1])
        assert grad_check(lambda t: ag.lm_head_ce(t, Tensor(table), idx), states) < 1e-8
        assert grad_check(lambda t: ag.lm_head_ce(Tensor(states), t, idx), table) < 1e-8


def test_cross_entropy_backward_equal_to_softmax_minus_scatter():
    # the gradient is the logsumexp gradient plus the pick's scatter of -1/n (under an
    # identity table the states' gradient is the logits' gradient exactly)
    rng = np.random.default_rng(26)
    for shape in [(7, 11), (2, 3, 5), (4,)]:
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        idx = rng.integers(0, shape[-1], size=shape[:-1])
        n = idx.size
        ag.backward(ag.lm_head_ce(x, np.eye(shape[-1]), idx))
        lse = Tensor(x.data, requires_grad=True)
        ag.backward(_mean(_logsumexp(lse)))
        scatter = _composed_gather_backward(shape, idx, np.full(idx.shape, -(1.0 / n)))
        assert x.grad.tobytes() == (lse.grad + scatter).tobytes()


def _chain_info_nce(q, p, n, temperature):
    """The 14-node InfoNCE chain ``info_nce_loss`` replaced, kept as its reference."""
    bsz, dim = q.shape
    pos = ag.sum_lastdim(ag.mul(q, p))
    cand = ag.matmul(q, _permute(p, (1, 0)))
    neg = np.zeros((bsz, 0))
    if n is not None and n.shape[1] > 0:
        neg_t = _reshape(ag.matmul(n, _reshape(q, (bsz, dim, 1))), (bsz, n.shape[1]))
        cand, neg = _concat_lastdim(cand, neg_t), neg_t.data
    inv_t = 1.0 / temperature
    lse = _logsumexp(ag.mul(cand, inv_t))
    return ag.sum_lastdim(_sub(lse, ag.mul(pos, inv_t))), pos.data, neg


def _chain_cosent(c, labels, tau):
    """The 8-node CoSENT chain ``cosent_loss`` replaced, kept as its reference."""
    hi, lo = np.where(labels[:, None] > labels[None, :])
    diffs = _sub(ag.index_select(c, lo), ag.index_select(c, hi))
    return _log1p(ag.sum_lastdim(_exp(ag.mul(diffs, 1.0 / tau))))


def _info_nce_mrl(fused, w, xs):
    """Queries and a (B·(1+K), D) passage batch projected by one shared weight ``w``,
    scored at its full width and at half of it and averaged, as the supervised stage
    does: fused, the passage batch goes to ``info_nce_loss`` as it is; as the chain,
    two row gathers cut it into positives and (B, K, D) negatives first, each then
    truncated on its own, as the supervised stage did before."""
    dim = w.shape[1]
    q, passages = (ag.l2_normalize(ag.matmul(Tensor(x), w)) for x in xs)
    bsz = q.shape[0]
    operands = (q, passages) if fused else (
        q, ag.index_select(passages, np.arange(bsz)),
        ag.index_select(passages, np.arange(bsz, passages.shape[0]).reshape(bsz, -1)))
    terms, scores = [], []
    for d in sorted({dim, max(1, dim // 2)}, reverse=True):
        cut = [t if d == dim else ag.l2_normalize(_gather(t, -1, np.arange(d)))
               for t in operands]
        loss, pos, neg = (ag.info_nce_loss if fused else _chain_info_nce)(*cut, 0.05)
        terms.append(loss)
        scores += [pos, neg]
    total = terms[0]
    for term in terms[1:]:
        total = ag.add(total, term)
    return ag.mul(total, 1.0 / len(terms)), scores


def test_info_nce_bitwise_equal_to_chain():
    # queries and passages through one weight, two widths and an upstream gradient:
    # loss, scores and the weight's gradient must not move in the last bit, also
    # with no negatives (K = 0) and when one query's negatives repeat another
    # query's positive and negatives row for row
    rng = np.random.default_rng(40)
    cases = [(rng.integers(1, 9), rng.integers(2, 65), rng.integers(0, 8), False)
             for _ in range(200)]
    cases += [(1, 16, 0, False), (6, 33, 0, False), (2, 8, 3, True), (5, 64, 7, True)]
    for bsz, dim, k, duplicate in cases:
        raw = rng.normal(size=(dim, dim))
        xs = [rng.normal(size=(bsz, dim)), rng.normal(size=(bsz * (1 + k), dim))]
        if duplicate:
            # query 0's negatives: query 1's positive, then its first k - 1 negatives
            xs[1][bsz:bsz + k] = xs[1][[1] + list(range(bsz + k, bsz + 2 * k - 1))]
        out = []
        for fused in (True, False):
            w = Tensor(raw, requires_grad=True)
            loss, scores = _info_nce_mrl(fused, w, xs)
            backward(ag.mul(loss, 0.37))
            out.append([loss.data.tobytes(), w.grad.tobytes()] + [a.tobytes() for a in scores])
        assert out[0] == out[1], (bsz, dim, k, duplicate)


@pytest.mark.parametrize("bsz,k", [(4, 0), (4, 3), (1, 0), (1, 5)])
def test_info_nce_matches_finite_differences(bsz, k):
    rng = np.random.default_rng(41 + k)
    args = {"q": rng.normal(size=(bsz, 6)), "passages": rng.normal(size=(bsz * (1 + k), 6))}
    for name in args:
        def f(t, name=name):
            ops = {a: (t if a == name else Tensor(v)) for a, v in args.items()}
            return ag.info_nce_loss(ops["q"], ops["passages"], 0.5)[0]

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


def test_index_select_backward_equal_to_add_at():
    # duplicates, -0.0 and a 2-d index; the bincount sums as np.add.at onto zeros does
    rng = np.random.default_rng(28)
    for shape, idx_shape in [((256, 64), (300,)), ((5, 7, 3), (4, 6)), ((6,), (9,))]:
        idx = rng.integers(0, shape[0], size=idx_shape)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        out = ag.index_select(x, idx)
        g = rng.normal(size=out.shape)
        g.reshape(-1)[::5] = -0.0
        backward(_sum(ag.mul(out, g)))
        buf = np.zeros(shape)
        np.add.at(buf, idx, g)
        assert x.grad.tobytes() == buf.tobytes()


def test_index_select_2d_indices_bitwise_equal_to_flat_then_reshape():
    # the embedding gather and the triplet negatives take (B, L) indices in one
    # node, where a flat gather used to be reshaped: output and gradient bytes
    # must not move, duplicate indices included
    rng = np.random.default_rng(31)
    for shape, idx_shape in [((512, 64), (32, 16)), ((36, 64), (4, 7)), ((5, 3), (2, 9))]:
        x = rng.normal(size=shape)
        idx = rng.integers(0, shape[0], size=idx_shape)
        g = rng.normal(size=idx_shape + shape[1:])
        out = {}
        for name, f in (("2-d", lambda t: ag.index_select(t, idx)),
                        ("flat", lambda t: _reshape(ag.index_select(t, idx.reshape(-1)), g.shape))):
            t = Tensor(x, requires_grad=True)
            y = f(t)
            backward(_sum(ag.mul(y, g)))
            out[name] = (y.data.tobytes(), t.grad.tobytes())
        assert out["2-d"] == out["flat"], (shape, idx_shape)


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
        loss = ag.add(ag.lm_head_ce(h, np.eye(4), np.array([0, 3, 1])), _sum(ag.mul(h, h)))
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
    assert grad_check(lambda t: _sum(ag.mul(ag.matmul(Tensor(a), t), r)), b) < 1e-8
    assert grad_check(lambda t: _sum(ag.mul(ag.matmul(t, Tensor(b)), r)), a) < 1e-8


def test_grad_check_perturbs_a_transposed_input():
    # a Fortran-ordered input: its perturbations once went to a flat copy, so every
    # central difference read 0 and the check failed on a correct gradient
    w = np.random.default_rng(33).normal(size=(3, 5)).T
    assert grad_check(lambda t: _sum(ag.mul(t, t)), w) < 1e-8


def test_broadcast_suffix_and_trailing_expansion():
    a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    bias = Tensor(np.arange(4.0), requires_grad=True)
    backward(_sum(ag.add(a, bias)))
    np.testing.assert_array_equal(bias.grad, np.full(4, 6.0))

    col = Tensor(np.ones((2, 3, 1)), requires_grad=True)
    a2 = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    backward(_sum(ag.mul(a2, col)))
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
        loss = _sum(ag.mul(x, x))
        backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            backward(loss)

    def test_backward_through_freed_subgraph_raises(self):
        # the first backward freed the shared node's closure; a second graph
        # through it would silently stop there
        x = Tensor([1.0, 2.0], requires_grad=True)
        shared = ag.mul(x, x)
        backward(_sum(shared))
        with pytest.raises(RuntimeError, match="freed"):
            backward(_sum(ag.mul(shared, 2.0)))

    def test_grad_check_reports_nonfinite_coordinate(self):
        def f(t):
            return _sum(_log(t))

        with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError, match="coordinate 1"):
            grad_check(f, np.array([1.0, 1e-7]), h=1e-6)


def _rows_to_sum(rng, rows, width):
    """Rows that pin the summation order: magnitudes from 1e-300 to 1e300 mixed
    within a row, rows of cancelling values, and rows of exact zeros as masked
    keys leave them, of -0.0, and of both signs of zero."""
    x = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-300, 301, size=(rows, width))
    x[rows // 2:] = rng.normal(size=(rows - rows // 2, width)) * 1e6
    x[rows // 2::2, width // 2:] = -x[rows // 2::2, :width - width // 2][:, ::-1]
    x[0] = 0.0
    x[1] = -0.0
    x[2, ::2], x[2, 1::2] = -0.0, 0.0
    x[3, ::3] = 0.0
    x[4, 1::2] = -0.0
    return x


class TestRowReductions:
    """``_rowdot`` is row-local: a row's sum has the same bits whatever rows
    share its buffer, how many there are and where the buffer starts, so an
    embedding does not depend on the block it was computed in.  ``_rowmax``
    returns numpy's own bits."""

    @staticmethod
    def _placed(x, byte_offset):
        """A copy of ``x`` that starts ``byte_offset`` bytes into its buffer."""
        buf = bytearray(x.nbytes + byte_offset)
        out = np.frombuffer(buf, dtype=np.float64, count=x.size, offset=byte_offset)
        out = out.reshape(x.shape)
        out[...] = x
        return out

    @pytest.mark.parametrize("width", [7, 8, 9, 16, 24, 64, 128])
    def test_rowdot_is_row_local(self, width):
        rng = np.random.default_rng(width)
        x = _rows_to_sum(rng, 300, width)
        y = rng.normal(size=x.shape)
        alone = [ag._rowdot(x[i:i + 1]).tobytes() for i in range(len(x))]
        dots = [ag._rowdot(x[i:i + 1], y[i:i + 1]).tobytes() for i in range(len(x))]
        for start in (0, 1, 3, 6, 37):
            for count in (1, 2, 5, 8, 13, 64, 100, 263):
                rows = slice(start, start + count)
                for offset in (0, 8, 24, 40, 1):
                    a, b = self._placed(x[rows], offset), self._placed(y[rows], offset)
                    got, got_dot = ag._rowdot(a), ag._rowdot(a, b)
                    assert got.shape == got_dot.shape == (count, 1)
                    assert [r.tobytes() for r in got] == alone[rows], (start, count, offset)
                    assert [r.tobytes() for r in got_dot] == dots[rows], (start, count, offset)

    def test_rowdot_on_attention_shaped_buffers(self):
        # (B, KV, G*L, L) as attention holds its probabilities, and a strided view
        rng = np.random.default_rng(61)
        x = np.exp(rng.normal(size=(16, 2, 32, 8)))
        x[..., 5:] = 0.0
        got = ag._rowdot(x)
        assert got.shape == (16, 2, 32, 1)
        np.testing.assert_allclose(got, x.sum(axis=-1, keepdims=True), rtol=1e-15)
        assert got[3, 1].tobytes() == ag._rowdot(x[3, 1]).tobytes()
        view = rng.normal(size=(256, 16))[:, ::2]
        assert ag._rowdot(view, view).tobytes() == ag._rowdot(view.copy(), view.copy()).tobytes()
        np.testing.assert_allclose(ag._rowdot(view, view), (view * view).sum(-1, keepdims=True),
                                   rtol=1e-14)

    @pytest.mark.parametrize("width", [7, 8, 9])
    def test_rowmax_equals_np_max_on_signed_zeros_and_extremes(self, width):
        x = _rows_to_sum(np.random.default_rng(62), 64, width)
        x[5::3, ::4] = -np.inf
        x[6] = -np.inf
        assert ag._rowmax(x).tobytes() == x.max(axis=-1, keepdims=True).tobytes()


class TestNoGrad:
    @pytest.mark.parametrize("shape,gain_shape", [((32, 8, 16), (16,)), ((4, 6), (4, 6)),
                                                  ((3, 5), (2, 3, 5))])
    def test_rmsnorm_without_tape_bitwise_equal_to_tracked(self, shape, gain_shape):
        rng = np.random.default_rng(70)
        x, gain = rng.normal(size=shape), rng.normal(size=gain_shape)
        tracked = ag.rmsnorm(Tensor(x, requires_grad=True), Tensor(gain, requires_grad=True))
        with ag.no_grad():
            untracked = ag.rmsnorm(Tensor(x, requires_grad=True), Tensor(gain, requires_grad=True))
        constants = ag.rmsnorm(Tensor(x), gain)          # no tracked operand: no tape either
        assert tracked.requires_grad and not untracked.requires_grad
        for out in (untracked, constants):
            assert out.shape == tracked.shape
            assert out.data.tobytes() == tracked.data.tobytes()
        with ag.no_grad(), pytest.raises(DomainError):
            ag.rmsnorm(Tensor(np.zeros(shape)), gain)

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
        out = _sum(ag.mul(x, x))
        backward(out)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_grad_check_linear_function_is_exact():
    # fd of a linear function is h-independent; a large step avoids cancellation noise
    for seed in range(5):
        x = np.random.default_rng(seed).normal(size=(3, 3))
        assert grad_check(_sum, x, h=0.25) < 1e-12
