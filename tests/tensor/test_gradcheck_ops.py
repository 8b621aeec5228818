"""Analytic-vs-numeric gradient checks for every autograd Function."""

import numpy as np
import pytest

from repro.tensor import functional as F
from repro.tensor.gradcheck import gradcheck, numerical_grad
from repro.tensor.tensor import Tensor


def t(shape, seed=0, positive=False):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


class TestArithmeticGrads:
    def test_add(self):
        assert gradcheck(lambda a, b: (a + b).sum(), [t((3, 4)), t((3, 4), 1)])

    def test_add_broadcast(self):
        assert gradcheck(lambda a, b: (a + b).sum(), [t((3, 4)), t((4,), 1)])

    def test_sub(self):
        assert gradcheck(lambda a, b: (a - b).sum(), [t((3, 4)), t((3, 4), 1)])

    def test_mul(self):
        assert gradcheck(lambda a, b: (a * b).sum(), [t((3, 4)), t((3, 4), 1)])

    def test_mul_broadcast_column(self):
        assert gradcheck(lambda a, b: (a * b).sum(), [t((3, 4)), t((3, 1), 1)])

    def test_div(self):
        assert gradcheck(
            lambda a, b: (a / b).sum(), [t((3, 4)), t((3, 4), 1, positive=True)]
        )

    def test_neg(self):
        assert gradcheck(lambda a: (-a).sum(), [t((5,))])

    def test_pow(self):
        assert gradcheck(lambda a: (a ** 3).sum(), [t((4,), positive=True)])

    def test_sqrt(self):
        assert gradcheck(lambda a: a.sqrt().sum(), [t((4,), positive=True)])

    def test_matmul(self):
        assert gradcheck(lambda a, b: (a @ b).sum(), [t((3, 4)), t((4, 2), 1)])

    def test_matmul_vector(self):
        assert gradcheck(lambda a, b: (a @ b).sum(), [t((5, 3)), t((3, 1), 1)])


class TestShapeGrads:
    def test_reshape(self):
        assert gradcheck(lambda a: a.reshape(12).sum(), [t((3, 4))])

    def test_transpose(self):
        assert gradcheck(lambda a: (a.T * a.T).sum(), [t((3, 4))])

    def test_slice(self):
        assert gradcheck(lambda a: (a[1:, ::2] ** 2).sum(), [t((4, 6))])

    def test_concat(self):
        assert gradcheck(
            lambda a, b: (F.concat([a, b], axis=1) ** 2).sum(),
            [t((3, 2)), t((3, 4), 1)],
        )


class TestReductionGrads:
    def test_sum_all(self):
        assert gradcheck(lambda a: (a * a).sum(), [t((3, 4))])

    def test_sum_axis(self):
        assert gradcheck(lambda a: (a.sum(axis=0) ** 2).sum(), [t((3, 4))])

    def test_sum_keepdims(self):
        assert gradcheck(
            lambda a: (a.sum(axis=1, keepdims=True) * a).sum(), [t((3, 4))]
        )

    def test_mean(self):
        assert gradcheck(lambda a: (a.mean(axis=1) ** 2).sum(), [t((3, 4))])

    def test_mean_all(self):
        assert gradcheck(lambda a: a.mean() * 7.0, [t((3, 4))])

    def test_max_axis(self):
        # Perturbation-safe: well-separated values.
        x = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 1.0, 3.0]]), requires_grad=True)
        assert gradcheck(lambda a: a.max(axis=1).sum(), [x])

    def test_max_all(self):
        x = Tensor(np.array([1.0, 9.0, 2.0]), requires_grad=True)
        assert gradcheck(lambda a: a.max() * 2.0, [x])


class TestNonlinearityGrads:
    def test_relu(self):
        assert gradcheck(lambda a: a.relu().sum(), [t((20,), 3)])

    def test_leaky_relu(self):
        assert gradcheck(lambda a: F.leaky_relu(a, 0.1).sum(), [t((20,), 3)])

    def test_exp(self):
        assert gradcheck(lambda a: a.exp().sum(), [t((4,))])

    def test_log(self):
        assert gradcheck(lambda a: a.log().sum(), [t((4,), positive=True)])

    def test_sigmoid(self):
        assert gradcheck(lambda a: a.sigmoid().sum(), [t((6,))])

    def test_tanh(self):
        assert gradcheck(lambda a: a.tanh().sum(), [t((6,))])

    def test_softmax(self):
        assert gradcheck(lambda a: (F.softmax(a) * F.softmax(a)).sum(), [t((3, 5))])

    def test_log_softmax(self):
        assert gradcheck(lambda a: F.log_softmax(a).sum(), [t((3, 5))])


class TestGraphOpGrads:
    def test_index_select(self):
        idx = np.array([0, 2, 2, 1])
        assert gradcheck(
            lambda a: (F.index_select(a, idx) ** 2).sum(), [t((3, 4))]
        )

    def test_segment_sum(self):
        seg = np.array([0, 0, 1, 2, 2, 2])
        assert gradcheck(
            lambda a: (F.segment_sum(a, seg, 3) ** 2).sum(), [t((6, 3))]
        )

    def test_segment_sum_empty_segment(self):
        seg = np.array([0, 0, 2])  # segment 1 empty
        out = F.segment_sum(t((3, 2)), seg, 3)
        assert np.allclose(out.data[1], 0.0)

    def test_segment_mean(self):
        seg = np.array([0, 0, 1])
        assert gradcheck(
            lambda a: (F.segment_mean(a, seg, 2) ** 2).sum(), [t((3, 4))]
        )

    def test_segment_softmax_sums_to_one(self):
        seg = np.array([0, 0, 0, 1, 1])
        out = F.segment_softmax(t((5, 1)), seg, 2)
        sums = F.segment_sum(out, seg, 2)
        assert np.allclose(sums.data, 1.0, atol=1e-5)

    def test_segment_softmax_grad(self):
        seg = np.array([0, 0, 0, 1, 1])
        assert gradcheck(
            lambda a: (F.segment_softmax(a, seg, 2) ** 2).sum(), [t((5, 1))]
        )

    def test_cross_entropy_grad(self):
        targets = np.array([0, 2, 1])
        assert gradcheck(lambda a: F.cross_entropy(a, targets), [t((3, 4))])

    def test_nll_empty_batch_raises(self):
        with pytest.raises(ValueError, match="empty batch"):
            F.nll_loss(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.int64))

    def test_segment_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="entries"):
            F.segment_sum(t((3, 2)), np.array([0, 1]), 2)


class TestDropout:
    def test_eval_identity(self):
        x = t((10, 10))
        out = F.dropout(x, p=0.5, training=False)
        assert out is x

    def test_p_zero_identity(self):
        x = t((10, 10))
        assert F.dropout(x, p=0.0) is x

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout(t((2,)), p=1.0)

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, p=0.5, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_grad_matches_mask(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((50,)), requires_grad=True)
        out = F.dropout(x, p=0.5, rng=rng)
        out.sum().backward()
        # Gradient is exactly the applied mask.
        assert np.allclose(x.grad, out.data)


class TestNumericalGradHelper:
    def test_numerical_grad_linear(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        grad = numerical_grad(lambda a: (a * 3.0).sum(), [x], wrt=0)
        assert np.allclose(grad, 3.0, atol=1e-4)

    def test_gradcheck_detects_wrong_backward(self):
        class Broken(F.IndexSelect):
            def backward(self, grad):
                (out,) = super().backward(grad)
                return (out * 2.0,)

        x = Tensor(np.ones((3, 2)), requires_grad=True)
        with pytest.raises(AssertionError):
            gradcheck(
                lambda a: Broken.apply(a, indices=np.array([0, 1])).sum(), [x]
            )


class TestNeedsInputGrad:
    """Ops skip the adjoint of an operand that is off the tape."""

    @staticmethod
    def const(shape, seed):
        return Tensor(np.random.default_rng(seed).standard_normal(shape))

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
        lambda a, b: a / (b * b + 1.0), lambda a, b: a @ b.T,
    ], ids=["add", "sub", "mul", "div", "matmul"])
    def test_gradcheck_with_one_constant_operand(self, op):
        assert gradcheck(lambda a: op(a, self.const((3, 4), 1)).sum(), [t((3, 4))])
        assert gradcheck(lambda b: op(self.const((3, 4), 1), b).sum(), [t((3, 4))])

    def test_flags_follow_requires_grad(self):
        out = t((3, 4)) * self.const((3, 1), 1)
        assert out._ctx.needs_input_grad == (True, False)
        grad_a, grad_b = out._ctx.backward(np.ones((3, 4)))
        assert grad_a.shape == (3, 4) and grad_b is None

    def test_constant_only_ops_stay_off_the_tape(self):
        out = self.const((3, 4), 0) @ self.const((4, 2), 1)
        assert not out.requires_grad and out._ctx is None

    def test_none_for_a_needed_input_is_an_error(self):
        class Forgetful(F.IndexSelect):
            def backward(self, grad):
                return (None,)

        out = Forgetful.apply(t((3, 2)), indices=np.array([0, 1])).sum()
        with pytest.raises(RuntimeError, match="Forgetful.backward returned None for input 0"):
            out.backward()
