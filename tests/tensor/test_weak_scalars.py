"""Python scalars on the tape are weak, as NumPy's own scalars are.

A Python ``int`` or ``float`` takes the dtype of the tensor it meets, so
``loss / float(n)`` or ``1.0 - x`` keeps a float32 tensor float32 and a
float64 one float64.  Every other operand -- a NumPy array of any rank,
0-d included, or a NumPy scalar -- is strong and keeps NumPy's own
promotion.
"""

import numpy as np
import pytest

from references import gradcheck
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, maximum

OPS = {
    "add": lambda t, s: t + s,
    "radd": lambda t, s: s + t,
    "sub": lambda t, s: t - s,
    "rsub": lambda t, s: s - t,
    "mul": lambda t, s: t * s,
    "rmul": lambda t, s: s * t,
    "div": lambda t, s: t / s,
    "rdiv": lambda t, s: s / t,
}
DTYPES = [np.float32, np.float64]


def _leaf(dtype, shape=(3, 4)):
    rng = np.random.default_rng(5)
    return Tensor(rng.uniform(1.0, 2.0, shape).astype(dtype), requires_grad=True)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("scalar", [3, -2.5], ids=["int", "float"])
@pytest.mark.parametrize("op", sorted(OPS))
def test_python_scalar_keeps_the_tensor_dtype(op, scalar, dtype):
    x = _leaf(dtype)
    out = OPS[op](x, scalar)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out.data, OPS[op](x.data, scalar))
    out.backward(np.ones_like(out.data))
    assert x.grad.dtype == dtype
    assert gradcheck(lambda t: OPS[op](t, scalar), [x], eps=1e-3)


@pytest.mark.parametrize("dtype", DTYPES)
def test_mean_loss_keeps_the_tensor_dtype(dtype):
    logits = _leaf(dtype, (5, 3))
    loss = F.cross_entropy(logits, np.array([0, 2, 1, 1, 0]))
    assert loss.dtype == dtype
    loss.backward()
    assert logits.grad.dtype == dtype


@pytest.mark.parametrize(
    "strong",
    [
        np.float64(2.0),
        np.float32(2.0),
        np.array(2.0),
        np.array(2.0, dtype=np.float32),
        np.full(4, 2.0),
        np.full(4, 2.0, dtype=np.float32),
    ],
    ids=["f8-scalar", "f4-scalar", "f8-0d", "f4-0d", "f8-row", "f4-row"],
)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", sorted(OPS))
def test_numpy_operand_keeps_numpy_promotion(op, dtype, strong):
    x = _leaf(dtype)
    out = OPS[op](x, strong)
    assert out.dtype == np.result_type(x.data, strong)
    np.testing.assert_array_equal(out.data, OPS[op](x.data, strong))


def test_scalars_without_a_strong_operand():
    assert maximum(1.0, 2.0).dtype == np.float64
    assert maximum(1, 2).dtype == np.float32
    assert maximum(np.float32(1.0), 2.0).dtype == np.float32
