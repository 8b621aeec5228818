"""Property-based tests on autograd invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from references import gradcheck
import user_modules

finite_floats = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False, width=64
)


def small_matrix(rows=st.integers(1, 5), cols=st.integers(1, 5)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: arrays(np.float64, shape, elements=finite_floats)
    )


@settings(max_examples=30, deadline=None)
@given(small_matrix())
def test_sum_grad_is_ones(data):
    x = Tensor(data, requires_grad=True)
    x.sum().backward()
    assert np.allclose(x.grad, np.ones_like(data))


@settings(max_examples=30, deadline=None)
@given(small_matrix(), st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_gradient_linearity_in_seed(data, scale):
    """backward(c * seed) == c * backward(seed) for a fixed tape."""
    x1 = Tensor(data, requires_grad=True)
    (x1 * x1).backward(np.ones_like(data))
    x2 = Tensor(data, requires_grad=True)
    (x2 * x2).backward(scale * np.ones_like(data))
    assert np.allclose(x2.grad, scale * x1.grad, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(small_matrix())
def test_mean_equals_sum_over_count(data):
    x1 = Tensor(data, requires_grad=True)
    x1.mean().backward()
    x2 = Tensor(data, requires_grad=True)
    (x2.sum() / float(data.size)).backward()
    assert np.allclose(x1.grad, x2.grad, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(small_matrix())
def test_softmax_rows_sum_to_one(data):
    out = user_modules.softmax(Tensor(data), axis=-1)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(small_matrix())
def test_log_softmax_consistent_with_softmax(data):
    x = Tensor(data)
    assert np.allclose(
        F.log_softmax(x).data, np.log(user_modules.softmax(x).data + 1e-30), atol=1e-5
    )


@settings(max_examples=20, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 8), st.just(3)), elements=finite_floats),
    st.data(),
)
def test_segment_sum_conserves_mass(data, draw):
    n = data.shape[0]
    segments = np.asarray(
        draw.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    )
    out = F.segment_sum(Tensor(data), segments, 4)
    assert np.allclose(out.data.sum(axis=0), data.sum(axis=0), atol=1e-8)


@settings(max_examples=20, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 4)), elements=finite_floats)
)
def test_matmul_identity_grad(data):
    x = Tensor(data, requires_grad=True)
    eye = Tensor(np.eye(data.shape[1]))
    (x @ eye).sum().backward()
    assert np.allclose(x.grad, 1.0, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 4), st.integers(2, 4)),
        elements=st.floats(min_value=-2, max_value=2, allow_nan=False, width=64),
    )
)
def test_gradcheck_on_random_composite(data):
    # Smooth composite only: piecewise ops would put finite differences
    # astride their kinks for adversarial inputs.
    x = Tensor(data, requires_grad=True)
    assert gradcheck(
        lambda a: ((a @ a.T).tanh().sum(axis=1) ** 2).sum(), [x],
        atol=5e-2, rtol=5e-2,
    )
