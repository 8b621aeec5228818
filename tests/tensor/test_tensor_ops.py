"""Tensor construction, arithmetic, and backward-pass mechanics."""

import numpy as np
import pytest

from repro.tensor.tensor import Tensor, no_grad


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)

    def test_integer_payload_becomes_float32(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2

    def test_item(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)


class TestArithmetic:
    def test_add_sub_mul_div(self):
        a = Tensor([4.0])
        b = Tensor([2.0])
        assert (a + b).data[0] == 6.0
        assert (a - b).data[0] == 2.0
        assert (a * b).data[0] == 8.0
        assert (a / b).data[0] == 2.0

    def test_reflected_ops(self):
        a = Tensor([4.0])
        assert (1.0 + a).data[0] == 5.0
        assert (1.0 - a).data[0] == -3.0
        assert (2.0 * a).data[0] == 8.0
        assert (8.0 / a).data[0] == 2.0

    def test_neg_pow_sqrt(self):
        a = Tensor([4.0])
        assert (-a).data[0] == -4.0
        assert (a ** 2).data[0] == 16.0
        assert a.sqrt().data[0] == pytest.approx(2.0)

    def test_matmul(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose((a @ b).data, b.data)

    def test_numpy_array_times_tensor_dispatches_to_tensor(self):
        # __array_priority__ keeps numpy from eating the Tensor.
        a = np.ones((2, 2))
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = a * t
        assert isinstance(out, Tensor)


class TestBackward:
    def test_simple_chain(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        y.backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        (x * 3.0).backward()
        assert x.grad[0] == pytest.approx(5.0)

    def test_diamond_graph(self):
        # x used twice: grads must sum along both paths.
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        (a + b).backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_deep_chain_iterative_toposort(self):
        # 3000-deep chain would blow a recursive traversal.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.backward()
        assert x.grad[0] == pytest.approx(1.0)

    def test_seed_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        y.backward(np.array([10.0, 1.0]))
        assert np.allclose(x.grad, [20.0, 2.0])

    def test_seed_shape_mismatch_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(ValueError, match="seed gradient shape"):
            y.backward(np.zeros(3))

    def test_broadcast_add_unbroadcasts_grad(self):
        bias = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        (x + bias).sum().backward()
        assert bias.grad.shape == (3,)
        assert np.allclose(bias.grad, 4.0)

    def test_broadcast_keepdim_column(self):
        col = Tensor(np.ones((4, 1)), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        (x * col).sum().backward()
        assert col.grad.shape == (4, 1)
        assert np.allclose(col.grad, 3.0)

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_blocks_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._ctx is None

    def test_no_grad_restores_state(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            pass
        y = x * 2.0
        assert y.requires_grad

    def test_non_trainable_leaf_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=False)
        w = Tensor([2.0], requires_grad=True)
        (x * w).backward()
        assert x.grad is None
        assert w.grad is not None


class TestShapesAndReductions:
    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        y = x.reshape(2, 3).reshape((6,))
        assert np.allclose(y.data, x.data)
        y.sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_transpose(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.T.shape == (3, 2)

    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)))
        assert x.sum().shape == ()
        assert x.sum(axis=0).shape == (3,)
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_matches_numpy(self):
        data = np.arange(12.0).reshape(3, 4)
        assert np.allclose(Tensor(data).mean(axis=1).data, data.mean(axis=1))

    def test_max_with_ties_splits_gradient(self):
        x = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
        x.max(axis=1).backward()
        assert np.allclose(x.grad, [[0.5, 0.5]])

    def test_slicing_backward_scatter(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[1:3].sum().backward()
        assert np.allclose(x.grad, [0, 1, 1, 0, 0])

    def test_fancy_index_duplicates_accumulate(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        assert np.allclose(x.grad, [2, 0, 1])


class TestElementwise:
    def test_relu(self):
        x = Tensor([-1.0, 2.0])
        assert np.allclose(x.relu().data, [0.0, 2.0])

    def test_exp_log_inverse(self):
        x = Tensor([0.5, 1.5])
        assert np.allclose(x.exp().log().data, x.data, atol=1e-6)

    def test_tanh_odd(self):
        x = Tensor([1.0])
        assert np.allclose(x.tanh().data, -((-x).tanh().data))
