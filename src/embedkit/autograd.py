"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tensor wraps a numpy array plus, when gradients are tracked, the
closure that pushes its output gradient back to its parents.  The graph
is implicit (each result remembers its inputs) and is rebuilt on every
forward pass.  ``backward`` may be called once per graph: as it runs, it
frees the graph's saved state, dropping each node's closure (and the
arrays it saved) and each intermediate gradient once the node has passed
its gradient on.  Only the leaves' ``.grad`` and the nodes' ``_parents``
(the graph's shape) remain.

Plain numpy arrays and Python scalars are wrapped as untracked constants.
The elementwise ops take tracked and constant operands alike, no gradient
is computed for a constant, and broadcasting between the two operands is
deliberately restricted to two explicit patterns so shape bugs fail loudly:

  * suffix match: the smaller shape equals the trailing dims of the
    larger one, e.g. (D,) against (B, L, D), or a scalar () against any;
  * trailing-axis expansion: shapes agree except the last axis of one
    operand is 1, e.g. (B, L, 1) against (B, L, D).

Inside ``with no_grad():`` no graph is recorded: every op returns an
untracked Tensor with the same data, so inference keeps no tape alive.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

_grad_enabled = True


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested kernel."""


class DomainError(ValueError):
    """Input outside the kernel's domain (an L2-normalize of a zero vector)."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@contextmanager
def no_grad():
    """Record no graph inside the block; the previous setting is restored on exit.

    The setting is one flag for the whole process, not one per thread.
    """
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    # gradients are never written in place, so the first one is kept as is
    # (a leaf's .grad may be a read-only view) and later ones add out of place
    t.grad = g if t.grad is None else t.grad + g


def _check_elementwise(a: Tensor, b: Tensor):
    """Enforce the restricted broadcast contract between two tracked operands."""
    sa, sb = a.shape, b.shape
    if sa == sb:
        return
    for big, small in ((sa, sb), (sb, sa)):
        if len(small) <= len(big) and small == big[len(big) - len(small):]:
            return
        if len(small) == len(big) and small[:-1] == big[:-1] and small[-1] == 1 and big[-1] != 1:
            return
    raise ShapeMismatchError(f"elementwise operands not broadcastable: {sa} vs {sb}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce an output gradient back to an operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    if g.shape != tuple(shape):
        g = g.sum(axis=-1, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a, b)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a, b)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward_fn)


def _swap_last2(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"matmul needs >=2-d operands: {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    if b.ndim != 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeMismatchError(f"matmul batch dimensions differ: {a.shape} vs {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, np.matmul(g, _swap_last2(b.data)))
        if b.requires_grad:
            if b.ndim == 2 and a.ndim > 2:
                # a weight shared by every leading position: one (N, D)^T @ (N, F) GEMM
                gb = np.matmul(a.data.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]))
            else:
                gb = np.matmul(_swap_last2(a.data), g)
            _accumulate(b, gb)

    return _make(out_data, (a, b), backward_fn)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        _accumulate(a, g * (a.data > 0.0))

    return _make(out_data, (a,), backward_fn)


def softmax_lastdim(a) -> Tensor:
    """Row softmax along the last axis; -inf entries yield exact zeros."""
    a = as_tensor(a)
    m = np.max(a.data, axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        _accumulate(a, out_data * (g - inner))

    return _make(out_data, (a,), backward_fn)


def _lane_tree(op, x: np.ndarray) -> np.ndarray:
    """``op`` reduced over the 8 columns of ``x`` as ``((c0,c1),(c2,c3)),((c4,c5),(c6,c7))``.

    Three whole-array ops on column slices in place of one reduction per row.
    """
    x = op(x[..., 0::2], x[..., 1::2])
    x = op(x[..., 0::2], x[..., 1::2])
    return op(x[..., :1], x[..., 1:])


def _rowdot(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sums over the last axis of ``a``, or of ``a * b`` (same shape), kept as (..., 1).

    einsum's own loop reduces each row by itself, in an order set by the row's
    width alone, so a row's sum depends only on its values: not on the other
    rows, their count, or the buffer's offset and alignment.  An embedding
    thus keeps its bits in any row block.  Strided rows are copied first, as
    einsum sums them in another order.  It is 3-4x faster than numpy's
    per-row ``sum`` on rows of 8-24 values; without ``optimize`` no BLAS call
    is made (a GEMV against ones is faster still, but not row-local).
    """
    n = a.shape[-1]
    a2 = np.ascontiguousarray(a).reshape(-1, n)
    if b is None:
        s = np.einsum("ij->i", a2)
    else:
        s = np.einsum("ij,ij->i", a2, np.ascontiguousarray(b).reshape(-1, n))
    return s.reshape(a.shape[:-1] + (1,))


def _rowmax(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, bit for bit (max is exact in any order).

    numpy reduces a short last axis row by row, which costs more than the
    values; a loop of ``np.maximum`` over the columns into one (..., 1)
    buffer is 3-12x faster on cache-sized rows of 8-24 keys.  On rows of 8
    the lane tree is faster again at every row count (256 rows: 13 -> 6 us,
    4096 rows: 36 -> 22 us), as numpy's max pays more per row than its sum.
    """
    if x.shape[-1] == 8:
        return _lane_tree(np.maximum, x)
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j:j + 1], out=m)
    return m


def attention(q, k, v, weights, heads: int) -> Tensor:
    """Masked grouped-query attention as one node: ``P @ v``, row i of P = norm(w_i * exp(q_i . k / sqrt(dh))).

    ``q`` is (B, L, H*dh) and ``k`` and ``v`` are (B, L, KV*dh), token-major as
    the projections produce them; the output is (B, L, H*dh) in the same layout
    and the gradients come back in the operands' own.  ``heads`` is H; dh and KV
    follow from the widths, and query head h reads key/value head h // (H // KV).
    ``weights`` is (L, L) or (B, L, L) in [0, 1], shared by every head: a zero
    weight is a -inf score offset before the softmax, the others re-weight its
    probabilities, and rows are renormalized.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 3 or k.ndim != 3:
        raise ShapeMismatchError(f"attention needs (B, L, heads*dh) operands: {q.shape} vs {k.shape}")
    bsz, length, width = q.shape
    if heads < 1 or width % heads:
        raise ShapeMismatchError(f"attention q width {width} does not split into {heads} heads")
    dh = width // heads
    kv = k.shape[-1] // dh
    if kv < 1 or heads % kv or k.shape != v.shape or k.shape != (bsz, length, kv * dh):
        raise ShapeMismatchError(f"attention q {q.shape} does not group over k {k.shape} / v {v.shape}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape not in ((length, length), (bsz, length, length)):
        raise ShapeMismatchError(f"attention weights {w.shape} do not fit {length} positions of {bsz} rows")
    group = heads // kv
    scale = 1.0 / np.sqrt(dh)

    def split(x, n):  # (B, L, n*dh) -> a (B, n, L, dh) view
        return x.reshape(bsz, length, n, dh).transpose(0, 2, 1, 3)

    def merge(x, t):  # (B, n, L, dh) -> t's (B, L, n*dh) layout
        return x.transpose(0, 2, 1, 3).reshape(t.shape)

    # the G query heads of one key/value head stacked along rows: (B, KV, G*L, dh),
    # so that sharing k and v is a reshape and their gradients sum inside one GEMM
    qg = split(q.data, heads).reshape(bsz, kv, group * length, dh)
    kh, vh = split(k.data, kv), split(v.data, kv)
    p = np.matmul(qg, np.ascontiguousarray(_swap_last2(kh)))  # 2x faster than on the strided view
    p5 = p.reshape(bsz, kv, group, length, length)
    w5 = w if w.ndim == 2 else w[:, None, None]
    p *= scale
    zero = w5 == 0.0
    if zero.any():
        # one additive bias over whole (L, L) tiles, where a masked copyto is much
        # slower; x + 0.0 is x but for -0.0 -> +0.0, which the row-max shift and
        # exp map to the same value as -0.0
        p5 += np.where(zero, -np.inf, 0.0)
    p -= _rowmax(p)
    np.exp(p, out=p)
    if not (zero | (w5 == 1.0)).all():  # 0/1 weights: the -inf offset already zeroed them
        p5 *= w5
    p *= 1.0 / _rowdot(p)
    out_data = merge(np.matmul(p, vh).reshape(bsz, heads, length, dh), q)

    def backward_fn(g):
        g = split(g, heads).reshape(bsz, kv, group * length, dh)
        if v.requires_grad:
            _accumulate(v, merge(np.matmul(_swap_last2(p), g), v))
        if q.requires_grad or k.requires_grad:
            ds = np.matmul(g, _swap_last2(vh))
            ds -= _rowdot(ds, p)
            ds *= p
            ds *= scale
            _accumulate(q, merge(np.matmul(ds, kh).reshape(bsz, heads, length, dh), q))
            _accumulate(k, merge(np.matmul(_swap_last2(ds), qg), k))

    return _make(out_data, (q, k, v), backward_fn)


def l2_normalize(a, width: int | None = None) -> Tensor:
    """Normalize along the last axis to unit Euclidean norm; with ``width``, only ``a[..., :width]``.

    A prefix's gradient is added into zeros of ``a``'s shape (``0.0 + -0.0``
    is ``+0.0``), so it is bitwise that of an ``index_select`` of the prefix.
    """
    a = as_tensor(a)
    x = a.data if width is None else a.data[..., :width]
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    if np.any(norms == 0.0):
        raise DomainError("cannot L2-normalize a zero vector")
    out_data = x / norms

    def backward_fn(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        gx = (g - out_data * inner) / norms
        if width is not None:
            full = np.zeros(a.shape)
            full[..., :width] += gx
            gx = full
        _accumulate(a, gx)

    return _make(out_data, (a,), backward_fn)


def rmsnorm(x, gain) -> Tensor:
    """``x / rms(x) * gain`` along the last axis, computed as ``x * (1 / |x|) * (sqrt(D) * gain)``."""
    x, gain = as_tensor(x), as_tensor(gain)
    _check_elementwise(x, gain)
    norms = np.sqrt(_rowdot(x.data, x.data))
    if np.any(norms == 0.0):
        raise DomainError("cannot L2-normalize a zero vector")
    c = float(np.sqrt(x.shape[-1]))
    inv = 1.0 / norms
    unit = x.data * inv
    cg = c * gain.data
    out_data = unit * cg

    def backward_fn(g):
        _accumulate(gain, _unbroadcast(g * unit, gain.shape) * c)
        a = _unbroadcast(g * cg, unit.shape)  # d loss / d unit: a broader gain's leading axes summed
        a -= unit * _rowdot(a, unit)
        a *= inv
        _accumulate(x, a)

    return _make(out_data, (x, gain), backward_fn)


def sum_lastdim(a, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=-1, keepdims=keepdims)

    def backward_fn(g):
        if not keepdims:
            g = np.expand_dims(g, -1)
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _make(out_data, (a,), backward_fn)


def pool(states, rows, scale) -> Tensor:
    """Weighted sum over positions as one node: ``(states * rows[..., None]).sum(axis=1) * scale[:, None]``.

    ``states`` is (B, L, D), ``rows`` (B, L) position weights (0/1 to select
    positions) and ``scale`` (B,); the output is (B, D).  Shapes are not
    checked here: ``encoder.pool_states`` builds rows and scale from the states.
    """
    s = as_tensor(states)
    rows = np.asarray(rows, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    out_data = (s.data * rows[..., None]).sum(axis=1) * scale[:, None]

    def backward_fn(g):
        _accumulate(s, (g * scale[:, None])[:, None, :] * rows[..., None])

    return _make(out_data, (s,), backward_fn)


def index_select(a, indices) -> Tensor:
    """Gather rows of ``a`` (an index array of any shape); duplicate indices accumulate on backward."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    dim = a.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= dim):
        raise IndexError(f"row index out of range for {dim} rows")
    out_data = np.take(a.data, idx, axis=0)

    def backward_fn(g):
        # one bincount over flat (index, position) bins: duplicates sum in the
        # order they occur, from 0.0, as np.add.at onto zeros would sum them
        width = math.prod(a.shape[1:])
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        summed = np.bincount(flat, weights=g.reshape(-1), minlength=dim * width)
        _accumulate(a, summed.reshape(a.shape))

    return _make(out_data, (a,), backward_fn)


def lm_head_ce(states, table, targets) -> Tensor:
    """Mean token cross-entropy of tied-embedding logits ``states @ table.T``; one node.

    ``states`` is (..., D), ``table`` the (V, D) embedding table and ``targets``
    (...) ids.  The logits are one (N, D) @ (D, V) GEMM on the flattened states,
    bitwise the stacked ``matmul(states, permute(table))`` they replace.  The
    cross-entropy's ops and their order are those of the chain logsumexp, pick,
    subtract, mean, so loss and gradients match that chain bit for bit; the
    target logits are picked first, then the one (N, V) logits buffer is shifted
    and exponentiated in place and, in the backward, becomes the gradient.  The
    backward's GEMMs are the replaced ``matmul``'s and ``permute``'s calls.
    Inputs are not checked here: ``losses.next_token_ce`` checks them.
    """
    s, t = as_tensor(states), as_tensor(table)
    idx = np.asarray(targets, dtype=np.intp)
    vocab, dim = t.shape
    s2 = s.data.reshape(-1, dim)
    x = np.matmul(s2, t.data.T)
    rows, cols = np.arange(x.shape[0]), idx.reshape(-1)
    picked = x[rows, cols]
    m = np.max(x, axis=-1, keepdims=True)
    x -= m
    np.exp(x, out=x)
    sums = x.sum(axis=-1)
    lse = np.log(sums) + m[:, 0]
    n = idx.size
    out_data = np.asarray((lse - picked).mean())

    def backward_fn(g):
        gn = g / n
        grad = x  # the forward buffer, overwritten: backward runs once per graph
        grad *= np.expand_dims(gn / sums, -1)
        grad[rows, cols] -= gn
        if s.requires_grad:
            _accumulate(s, np.matmul(grad.reshape(s.shape[:-1] + (vocab,)), t.data))
        if t.requires_grad:
            _accumulate(t, np.matmul(s2.T, grad).T)

    return _make(out_data, (s, t), backward_fn)


def info_nce_loss(q, passages, temperature: float) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Summed InfoNCE of (B, D) queries as one node: (loss, (B,) positive scores, (B, K) negative scores).

    ``passages`` is (B·(1+K), D): rows 0..B-1 are the positives, row B + i·K + j is
    query i's j-th negative.  Row i's candidates are ``q_i . p_j`` for every positive j,
    then its K negatives, and its loss is ``logsumexp(candidates / T) - q_i . p_i / T``.
    The ops and their order are those of the chain sum_lastdim(mul), matmul(permute),
    reshape(matmul(reshape)), concat, scale, logsumexp, sub, sum on the positives and
    negatives that two row gathers cut from ``passages``, with each operand's gradient
    terms summed in that chain's order, so loss, scores and gradients match it bit for
    bit.  Inputs are not checked here: ``losses.info_nce_with_scores`` checks them.
    """
    q, passages = as_tensor(q), as_tensor(passages)
    bsz, dim = q.shape
    p = passages.data[:bsz]
    n = passages.data[bsz:].reshape(bsz, -1, dim)
    inv_t = 1.0 / temperature
    pos = (q.data * p).sum(axis=-1)
    qr = q.data.reshape(bsz, dim, 1)
    neg = np.matmul(n, qr).reshape(bsz, -1)
    x = np.concatenate([np.matmul(q.data, p.T), neg], axis=-1) * inv_t
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=-1)
    out_data = np.asarray((np.log(s) + m[:, 0] - pos * inv_t).sum())

    def backward_fn(g):
        g = np.broadcast_to(g, (bsz,))
        gc = np.expand_dims(g / s, -1) * e * inv_t  # d loss / d candidates
        gin = gc[:, :bsz]
        gneg = gc[:, bsz:].reshape(bsz, -1, 1)
        gpos = np.expand_dims(-g * inv_t, -1)
        if q.requires_grad:
            gq = np.matmul(gin, p) + np.matmul(_swap_last2(n), gneg).reshape(q.shape)
            _accumulate(q, gq + gpos * p)
        if passages.requires_grad:
            gn = np.matmul(gneg, _swap_last2(qr)).reshape(-1, dim)
            _accumulate(passages, np.concatenate([np.matmul(q.data.T, gin).T + gpos * q.data, gn]))

    return _make(out_data, (q, passages), backward_fn), pos, neg


def cosent_loss(cosines, labels, tau: float) -> Tensor:
    """CoSENT of (P,) cosines as one node: ``log1p(sum exp((c_lo - c_hi) / tau))``.

    The sum runs over every pair (hi, lo) with ``labels[hi] > labels[lo]``;
    without one the loss is an untracked 0.  The ops and their order are those
    of the chain index_select, sub, scale, exp, sum, log1p, so loss and
    gradient match it bit for bit.  Inputs are not checked here: ``losses.cosent`` checks them.
    """
    c = as_tensor(cosines)
    labels = np.asarray(labels)
    hi, lo = np.where(labels[:, None] > labels[None, :])
    if hi.size == 0:
        return Tensor(0.0)
    inv_tau = 1.0 / tau
    e = np.exp((c.data[lo] - c.data[hi]) * inv_tau)
    total = e.sum()

    def backward_fn(g):
        gd = g / (total + 1.0) * e * inv_tau
        size = c.shape[0]
        _accumulate(c, np.bincount(lo, weights=gd, minlength=size)
                    + np.bincount(hi, weights=-gd, minlength=size))

    return _make(np.log1p(total), (c,), backward_fn)


def backward(loss: Tensor):
    """Populate gradients of every tracked leaf reachable from a scalar loss.

    The graph is freed on the way: each node's closure and gradient are
    dropped once its gradient has been passed to its parents.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents and node._backward is None:
            raise RuntimeError("graph already freed by an earlier backward; rebuild the graph first")
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.asarray(1.0)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            # passed on: free the closure's saved arrays and the intermediate gradient
            node._backward = None
            node.grad = None


def grad_check(f, x, h: float = 1e-6, max_coords: int | None = None, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor.  The error per coordinate is
    |analytic - fd| / max(1, |fd|).  For large inputs, ``max_coords``
    limits the check to a seeded random coordinate subset.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    # C order: the coordinates are perturbed through a flat view of it
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64, order="C")
    leaf = Tensor(base, requires_grad=True)
    out = f(leaf)
    backward(out)
    if leaf.grad is None:
        analytic = np.zeros_like(base)
    else:
        analytic = leaf.grad

    coords = np.arange(base.size)
    if max_coords is not None and max_coords < base.size:
        coords = np.random.default_rng(seed).choice(base.size, size=max_coords, replace=False)
        coords.sort()

    flat = base.reshape(-1)
    worst = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(Tensor(base)).data)
        flat[i] = orig - h
        fm = float(f(Tensor(base)).data)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ArithmeticError(f"non-finite objective while perturbing coordinate {i}")
        fd = (fp - fm) / (2.0 * h)
        err = abs(analytic.reshape(-1)[i] - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
    return worst
