"""Kernel-level checks for the reverse-mode engine: hand values, finite
differences on every kernel, and the error contract."""

import numpy as np
import pytest

from embedkit import autograd as ag
from embedkit.autograd import DomainError, ShapeMismatchError, Tensor, backward, grad_check

KERNEL_SEEDS = list(range(50))


class TestForwardValues:
    def test_matmul_ones(self):
        out = ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))

    def test_softmax_uniform(self):
        out = ag.softmax_lastdim(Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_cosine_orthogonal(self):
        out = ag.cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
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
        backward(ag.cosine(u, Tensor([1.0, 0.0])))
        np.testing.assert_array_equal(u.grad, [0.0, 0.0])

    def test_chained_matmul_softmax_log(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(5, 4))

        def f(t):
            return ag.tensor_sum(ag.log(ag.softmax_lastdim(ag.matmul(t, Tensor(w)))))

        assert grad_check(f, rng.normal(size=(3, 5)), h=1e-6) < 1e-6

    def test_grad_accumulates_over_reuse(self):
        x = Tensor([3.0], requires_grad=True)
        backward(ag.tensor_sum(ag.add(ag.mul(x, x), x)))
        np.testing.assert_allclose(x.grad, [7.0])


def _unary_cases():
    return {
        "exp": lambda t: ag.tensor_sum(ag.exp(t)),
        "log": lambda t: ag.tensor_sum(ag.log(ag.exp(t))),
        "relu": lambda t: ag.tensor_sum(ag.mul(ag.relu(t), t)),
        "softmax": lambda t: ag.tensor_sum(ag.mul(ag.softmax_lastdim(t), t)),
        "l2_normalize": lambda t: ag.tensor_sum(ag.mul(ag.l2_normalize(t), t)),
        "mean": lambda t: ag.tensor_mean(ag.mul(t, t)),
        "sum_lastdim": lambda t: ag.tensor_sum(ag.mul(ag.sum_lastdim(t, keepdims=True), t)),
        "reshape_permute": lambda t: ag.tensor_sum(
            ag.mul(ag.reshape(ag.permute(t, (1, 0)), (2, 6)), np.arange(12.0).reshape(2, 6))),
        "scale_addconst": lambda t: ag.tensor_sum(ag.scale(ag.add_const(t, 1.5), -2.0)),
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
        "concat": lambda t: ag.tensor_sum(ag.mul(ag.concat_lastdim(t, Tensor(c)),
                                                 np.arange(24.0).reshape(4, 6))),
    }.items():
        err = grad_check(f2, x, h=1e-6)
        assert err < 1e-4, f"{name} gradient off by {err} at seed {seed}"
    idx = rng.integers(0, 3, size=4)
    assert grad_check(lambda t: ag.tensor_sum(ag.mul(ag.gather_lastdim(t, idx), idx + 1.0)),
                      x, h=1e-6) < 1e-4
    sel = rng.integers(0, 4, size=6)
    assert grad_check(lambda t: ag.tensor_sum(ag.mul(ag.index_select(t, 0, sel),
                                                     np.arange(18.0).reshape(6, 3))),
                      x, h=1e-6) < 1e-4


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

    def test_log_domain(self):
        with pytest.raises(DomainError):
            ag.log(Tensor([1.0, -1.0]))

    def test_normalize_zero_vector(self):
        with pytest.raises(DomainError):
            ag.l2_normalize(Tensor([[1.0, 0.0], [0.0, 0.0]]))

    def test_cosine_zero_vector(self):
        with pytest.raises(DomainError):
            ag.cosine(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))

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

    def test_grad_check_reports_nonfinite_coordinate(self):
        def f(t):
            return ag.tensor_sum(ag.log(t))

        with pytest.raises((ArithmeticError, DomainError)):
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
