"""Optimisers: Adam, and the plain SGD the engine tests compare with."""

import pytest

from repro.tensor import optim
from repro.tensor.tensor import Tensor
import references


def quadratic_step(opt, param, target=3.0):
    """One gradient step on f(w) = (w - target)^2."""
    opt.zero_grad()
    loss = (param - target) * (param - target)
    loss.sum().backward()
    opt.step()
    return float(loss.data.sum())


class TestSGD:
    def test_converges_on_quadratic(self):
        w = Tensor([0.0], requires_grad=True)
        opt = references.SGD([w], lr=0.1)
        for _ in range(100):
            quadratic_step(opt, w)
        assert abs(w.data[0] - 3.0) < 1e-3

    def test_skips_params_without_grad(self):
        w = Tensor([1.0], requires_grad=True)
        opt = references.SGD([w], lr=0.1)
        opt.step()  # no backward happened
        assert w.data[0] == 1.0

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            references.SGD([Tensor([1.0], requires_grad=True)], lr=-1)

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            references.SGD([], lr=0.1)

    def test_rejects_non_trainable(self):
        with pytest.raises(ValueError):
            references.SGD([Tensor([1.0])], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        w = Tensor([0.0], requires_grad=True)
        opt = optim.Adam([w], lr=0.3)
        for _ in range(200):
            quadratic_step(opt, w)
        assert abs(w.data[0] - 3.0) < 1e-2

    def test_first_step_is_lr_sized(self):
        # With bias correction, step 1 moves by ~lr regardless of grad scale.
        w = Tensor([0.0], requires_grad=True)
        opt = optim.Adam([w], lr=0.1)
        quadratic_step(opt, w, target=1000.0)
        assert abs(abs(w.data[0]) - 0.1) < 1e-3

    def test_zero_grad_clears(self):
        w = Tensor([1.0], requires_grad=True)
        opt = optim.Adam([w])
        (w * 2.0).backward()
        opt.zero_grad()
        assert w.grad is None
