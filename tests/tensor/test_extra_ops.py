"""abs / clip / min / elementwise maximum-minimum."""

import numpy as np
import pytest

from repro.tensor.tensor import Tensor, maximum, minimum
from references import gradcheck


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestAbs:
    def test_forward(self):
        assert np.allclose(t([-2.0, 3.0]).abs().data, [2.0, 3.0])

    def test_grad(self):
        x = t([-2.0, 3.0, -0.5])
        assert gradcheck(lambda a: a.abs().sum(), [x])

    def test_grad_is_sign(self):
        x = t([-2.0, 3.0])
        x.abs().sum().backward()
        assert np.allclose(x.grad, [-1.0, 1.0])


class TestClip:
    def test_forward(self):
        out = t([-5.0, 0.5, 5.0]).clip(-1.0, 1.0)
        assert np.allclose(out.data, [-1.0, 0.5, 1.0])

    def test_grad_zero_outside(self):
        x = t([-5.0, 0.5, 5.0])
        x.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])

    def test_gradcheck_interior(self):
        x = t([0.2, -0.3, 0.7])
        assert gradcheck(lambda a: (a.clip(-1.0, 1.0) ** 2).sum(), [x])

    def test_inverted_bounds(self):
        with pytest.raises(ValueError, match="inverted"):
            t([1.0]).clip(2.0, 1.0)


class TestMinReduction:
    def test_forward(self):
        x = t([[3.0, 1.0], [2.0, 5.0]])
        assert np.allclose(x.min(axis=1).data, [1.0, 2.0])

    def test_grad(self):
        x = t([[3.0, 1.0], [2.0, 5.0]])
        x.min(axis=1).sum().backward()
        assert np.allclose(x.grad, [[0, 1], [1, 0]])

    def test_min_all(self):
        assert t([4.0, 2.0, 9.0]).min().data == 2.0


class TestElementwiseMaxMin:
    def test_maximum_forward(self):
        out = maximum(t([1.0, 5.0]), t([3.0, 2.0]))
        assert np.allclose(out.data, [3.0, 5.0])

    def test_maximum_grad_routing(self):
        a = t([1.0, 5.0])
        b = t([3.0, 2.0])
        maximum(a, b).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0])
        assert np.allclose(b.grad, [1.0, 0.0])

    def test_maximum_tie_goes_to_first(self):
        a = t([2.0])
        b = t([2.0])
        maximum(a, b).backward()
        assert a.grad[0] == 1.0 and b.grad[0] == 0.0

    def test_minimum_forward(self):
        out = minimum(t([1.0, 5.0]), t([3.0, 2.0]))
        assert np.allclose(out.data, [1.0, 2.0])

    def test_minimum_grad(self):
        a = t([1.0, 5.0])
        b = t([3.0, 2.0])
        minimum(a, b).sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])

    def test_gradcheck_composite(self):
        a = t([0.5, -1.5, 2.5])
        b = t([1.0, 1.0, 1.0])
        assert gradcheck(lambda a, b: (maximum(a, b) * minimum(a, b)).sum(),
                         [a, b])

    def test_accepts_raw_arrays(self):
        out = maximum(np.array([1.0, 4.0]), t([2.0, 3.0]))
        assert np.allclose(out.data, [2.0, 4.0])
