"""The autograd tensor and its reverse-mode tape.

The design mirrors a miniature PyTorch: every differentiable operation is
a :class:`Function` whose ``forward`` returns raw numpy data and whose
``backward`` maps the output gradient to input gradients.  ``apply``
records the function on the implicit tape (the ``_ctx`` pointers), and
:meth:`Tensor.backward` replays the tape in reverse topological order.

Only float64/float32 numerics are supported; GNN training in this
reproduction uses float32 to match the paper's GPU setting.  A Python
scalar operand takes the dtype of the tensors it meets (see
:meth:`Function.apply`), so a float32 model stays float32 end to end.
"""

from __future__ import annotations

import contextlib
import threading
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.tensor.scatter import scatter_add_rows

Arrayish = Union["Tensor", np.ndarray, float, int, list, tuple]

_grad_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable gradient recording inside the ``with`` block."""
    previous = _grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def _as_array(value: Arrayish, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    array = np.asarray(value, dtype=dtype)
    if array.dtype.kind in "iub" and dtype is None:
        # Integer payloads become float32: the engine is a float tensor
        # library; integer index arrays are passed as op attributes, not
        # as tensors.
        array = array.astype(np.float32)
    return array


def _is_weak(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, np.generic)


def _operands(inputs: Tuple[Arrayish, ...]) -> Tuple["Tensor", ...]:
    """``inputs`` as tensors, Python scalars cast to the others' dtype."""
    values = [
        value if isinstance(value, Tensor) or _is_weak(value) else Tensor(value)
        for value in inputs
    ]
    strong = [value.data for value in values if isinstance(value, Tensor)]
    dtype = np.result_type(*strong) if strong else None
    return tuple(
        value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=dtype))
        for value in values
    )


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum the leading dimensions that broadcasting added.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along dimensions that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Function:
    """A node on the autograd tape.

    Subclasses implement ``forward`` (numpy in, numpy out) and
    ``backward`` (output gradient in, tuple of input gradients out, one
    entry per input tensor).  ``needs_input_grad[i]`` says whether
    input ``i`` is on the tape; ``backward`` may return ``None`` for an
    input that is not, and so skip computing an adjoint nobody reads.
    """

    def __init__(self, *inputs: "Tensor"):
        self.inputs = inputs
        self.needs_input_grad = tuple(t.requires_grad for t in inputs)
        self.saved: Tuple = ()

    def save_for_backward(self, *items) -> None:
        self.saved = items

    def forward(self, *arrays: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, grad: np.ndarray):  # pragma: no cover
        raise NotImplementedError

    @classmethod
    def apply(cls, *inputs: Arrayish, **kwargs) -> "Tensor":
        """Record ``cls`` on the tape over ``inputs`` and return its output.

        A Python ``int`` or ``float`` operand is weak, as NumPy's own
        scalars are: it becomes an array of the result dtype of the
        other operands, so ``x / 2.0`` and ``1.0 - x`` keep a float32
        ``x`` float32 and a float64 one float64.  Every other operand
        (a ``Tensor``, a NumPy array of any rank, 0-d included, or a
        NumPy scalar such as ``np.float64(2.0)``) is strong and keeps
        NumPy's promotion: a float64 array meeting a float32 tensor
        makes the result float64.  With no strong operand, a float
        becomes float64 and an int float32.
        """
        tensors = inputs
        if not all(isinstance(value, Tensor) for value in inputs):
            tensors = _operands(inputs)
        ctx = cls(*tensors, **kwargs) if kwargs else cls(*tensors)
        data = ctx.forward(*(t.data for t in tensors))
        requires = _grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._ctx = ctx
        return out


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_ctx")
    # Make `np.ndarray * Tensor` dispatch to Tensor.__rmul__ instead of
    # numpy's broadcasting element-wise attempt.
    __array_priority__ = 100.0

    def __init__(self, data: Arrayish, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._ctx: Optional[Function] = None

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_note})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[Arrayish] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (and must be provided for non-scalar
        outputs only if a different seed gradient is wanted).
        """
        if grad is None:
            seed = np.ones_like(self.data)
        else:
            seed = _as_array(grad)
            if seed.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {seed.shape} != tensor shape {self.data.shape}"
                )

        order = self._toposort()
        grads = {id(self): seed}
        for node in order:
            ctx = node._ctx
            if ctx is None:
                continue
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            input_grads = ctx.backward(node_grad)
            if not isinstance(input_grads, tuple):
                input_grads = (input_grads,)
            if len(input_grads) != len(ctx.inputs):
                raise RuntimeError(
                    f"{type(ctx).__name__}.backward returned {len(input_grads)} "
                    f"gradients for {len(ctx.inputs)} inputs"
                )
            for i, (tensor_in, g) in enumerate(zip(ctx.inputs, input_grads)):
                if not ctx.needs_input_grad[i]:
                    continue
                if g is None:
                    raise RuntimeError(
                        f"{type(ctx).__name__}.backward returned None for "
                        f"input {i}, which requires a gradient"
                    )
                existing = grads.get(id(tensor_in))
                grads[id(tensor_in)] = g if existing is None else existing + g
            # Leaves accumulate into .grad.
            for tensor_in in ctx.inputs:
                if tensor_in.requires_grad and tensor_in._ctx is None:
                    pending = grads.pop(id(tensor_in), None)
                    if pending is not None:
                        pending = _unbroadcast(pending, tensor_in.data.shape)
                        if tensor_in.grad is None:
                            tensor_in.grad = pending.copy()
                        else:
                            tensor_in.grad = tensor_in.grad + pending
        # The root itself may be a leaf.
        if self.requires_grad and self._ctx is None:
            pending = grads.pop(id(self), None)
            if pending is not None:
                self.grad = pending if self.grad is None else self.grad + pending

    def _toposort(self) -> List["Tensor"]:
        order: List[Tensor] = []
        seen = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if node._ctx is not None:
                for parent in node._ctx.inputs:
                    if id(parent) not in seen:
                        stack.append((parent, False))
        order.reverse()
        return order

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic (delegating to Function subclasses below)
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayish) -> "Tensor":
        return Add.apply(self, other)

    __radd__ = __add__

    def __sub__(self, other: Arrayish) -> "Tensor":
        return Sub.apply(self, other)

    def __rsub__(self, other: Arrayish) -> "Tensor":
        return Sub.apply(other, self)

    def __mul__(self, other: Arrayish) -> "Tensor":
        return Mul.apply(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayish) -> "Tensor":
        return Div.apply(self, other)

    def __rtruediv__(self, other: Arrayish) -> "Tensor":
        return Div.apply(other, self)

    def __neg__(self) -> "Tensor":
        return Neg.apply(self)

    def __pow__(self, exponent: float) -> "Tensor":
        return Pow.apply(self, exponent=float(exponent))

    def __matmul__(self, other: Arrayish) -> "Tensor":
        return MatMul.apply(self, other)

    def __getitem__(self, index) -> "Tensor":
        return Slice.apply(self, index=index)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Reshape.apply(self, shape=shape)

    @property
    def T(self) -> "Tensor":
        """The transpose of a 2-D tensor."""
        return Transpose.apply(self)

    # ------------------------------------------------------------------
    # Reductions and element-wise math
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Mean.apply(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Max.apply(self, axis=axis, keepdims=keepdims)

    def exp(self) -> "Tensor":
        return Exp.apply(self)

    def log(self) -> "Tensor":
        return Log.apply(self)

    def sqrt(self) -> "Tensor":
        return Pow.apply(self, exponent=0.5)

    def relu(self) -> "Tensor":
        return Relu.apply(self)

    def abs(self) -> "Tensor":
        return Abs.apply(self)

    def clip(self, low: float, high: float) -> "Tensor":
        return Clip.apply(self, low=float(low), high=float(high))

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum via the max machinery (ties split evenly)."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    def tanh(self) -> "Tensor":
        return Tanh.apply(self)


# ----------------------------------------------------------------------
# Elementary functions
# ----------------------------------------------------------------------
class Add(Function):
    def forward(self, a, b):
        self.save_for_backward(a.shape, b.shape)
        return a + b

    def backward(self, grad):
        a_shape, b_shape = self.saved
        need_a, need_b = self.needs_input_grad
        return (
            _unbroadcast(grad, a_shape) if need_a else None,
            _unbroadcast(grad, b_shape) if need_b else None,
        )


class Sub(Function):
    def forward(self, a, b):
        self.save_for_backward(a.shape, b.shape)
        return a - b

    def backward(self, grad):
        a_shape, b_shape = self.saved
        need_a, need_b = self.needs_input_grad
        return (
            _unbroadcast(grad, a_shape) if need_a else None,
            _unbroadcast(-grad, b_shape) if need_b else None,
        )


class Mul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad):
        a, b = self.saved
        need_a, need_b = self.needs_input_grad
        return (
            _unbroadcast(grad * b, a.shape) if need_a else None,
            _unbroadcast(grad * a, b.shape) if need_b else None,
        )


class Div(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a / b

    def backward(self, grad):
        a, b = self.saved
        need_a, need_b = self.needs_input_grad
        return (
            _unbroadcast(grad / b, a.shape) if need_a else None,
            _unbroadcast(-grad * a / (b * b), b.shape) if need_b else None,
        )


class Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, grad):
        return (-grad,)


class Pow(Function):
    def __init__(self, *inputs, exponent: float):
        super().__init__(*inputs)
        self.exponent = exponent

    def forward(self, a):
        self.save_for_backward(a)
        return a ** self.exponent

    def backward(self, grad):
        (a,) = self.saved
        return (grad * self.exponent * a ** (self.exponent - 1.0),)


class MatMul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a @ b

    def backward(self, grad):
        a, b = self.saved
        need_a, need_b = self.needs_input_grad
        return (
            _unbroadcast(grad @ b.swapaxes(-1, -2), a.shape) if need_a else None,
            _unbroadcast(a.swapaxes(-1, -2) @ grad, b.shape) if need_b else None,
        )


class Slice(Function):
    def __init__(self, *inputs, index):
        super().__init__(*inputs)
        self.index = index

    def forward(self, a):
        self.save_for_backward(a.shape)
        return a[self.index]

    def backward(self, grad):
        (shape,) = self.saved
        full = np.zeros(shape, dtype=grad.dtype)
        index = self.index
        if isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind in "iu":
            scatter_add_rows(full, index, grad)
        else:
            np.add.at(full, index, grad)
        return (full,)


class Reshape(Function):
    def __init__(self, *inputs, shape):
        super().__init__(*inputs)
        self.shape = shape

    def forward(self, a):
        self.save_for_backward(a.shape)
        return a.reshape(self.shape)

    def backward(self, grad):
        (shape,) = self.saved
        return (grad.reshape(shape),)


class Transpose(Function):
    def forward(self, a):
        return a.swapaxes(0, 1)

    def backward(self, grad):
        return (grad.swapaxes(0, 1),)


class Sum(Function):
    def __init__(self, *inputs, axis=None, keepdims: bool = False):
        super().__init__(*inputs)
        self.axis = axis
        self.keepdims = keepdims

    def forward(self, a):
        self.save_for_backward(a.shape)
        return a.sum(axis=self.axis, keepdims=self.keepdims)

    def backward(self, grad):
        (shape,) = self.saved
        if self.axis is not None and not self.keepdims:
            axes = self.axis if isinstance(self.axis, tuple) else (self.axis,)
            for axis in sorted(a % len(shape) for a in axes):
                grad = np.expand_dims(grad, axis)
        return (np.broadcast_to(grad, shape).copy(),)


class Mean(Function):
    def __init__(self, *inputs, axis=None, keepdims: bool = False):
        super().__init__(*inputs)
        self.axis = axis
        self.keepdims = keepdims

    def forward(self, a):
        self.save_for_backward(a.shape)
        return a.mean(axis=self.axis, keepdims=self.keepdims)

    def backward(self, grad):
        (shape,) = self.saved
        if self.axis is None:
            count = int(np.prod(shape))
        else:
            axes = self.axis if isinstance(self.axis, tuple) else (self.axis,)
            count = int(np.prod([shape[a] for a in axes]))
        if self.axis is not None and not self.keepdims:
            axes = self.axis if isinstance(self.axis, tuple) else (self.axis,)
            for axis in sorted(a % len(shape) for a in axes):
                grad = np.expand_dims(grad, axis)
        return (np.broadcast_to(grad, shape).copy() / count,)


class Max(Function):
    def __init__(self, *inputs, axis=None, keepdims: bool = False):
        super().__init__(*inputs)
        self.axis = axis
        self.keepdims = keepdims

    def forward(self, a):
        out = a.max(axis=self.axis, keepdims=True)
        self.save_for_backward(a, out)
        if not self.keepdims and self.axis is not None:
            return np.squeeze(out, axis=self.axis)
        if not self.keepdims and self.axis is None:
            return out.reshape(())
        return out

    def backward(self, grad):
        a, out = self.saved
        mask = (a == out).astype(grad.dtype)
        # Split ties evenly, matching the subgradient convention.
        mask /= mask.sum(axis=self.axis, keepdims=True)
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        elif self.axis is None:
            grad = np.broadcast_to(grad, out.shape)
        return (mask * grad,)


class Exp(Function):
    def forward(self, a):
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * out,)


class Log(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad):
        (a,) = self.saved
        return (grad / a,)


class Relu(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.maximum(a, 0.0)

    def backward(self, grad):
        (a,) = self.saved
        return (grad * (a > 0),)


class Abs(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.abs(a)

    def backward(self, grad):
        (a,) = self.saved
        return (grad * np.sign(a),)


class Clip(Function):
    def __init__(self, *inputs, low: float, high: float):
        super().__init__(*inputs)
        if low > high:
            raise ValueError(f"clip bounds inverted: [{low}, {high}]")
        self.low = low
        self.high = high

    def forward(self, a):
        self.save_for_backward(a)
        return np.clip(a, self.low, self.high)

    def backward(self, grad):
        (a,) = self.saved
        inside = (a >= self.low) & (a <= self.high)
        return (grad * inside,)


class Maximum(Function):
    """Elementwise max of two tensors (ties send the gradient to a)."""

    def forward(self, a, b):
        self.save_for_backward(a, b)
        return np.maximum(a, b)

    def backward(self, grad):
        a, b = self.saved
        take_a = a >= b
        return (
            _unbroadcast(grad * take_a, a.shape),
            _unbroadcast(grad * ~take_a, b.shape),
        )


def maximum(a: Arrayish, b: Arrayish) -> "Tensor":
    """Differentiable elementwise maximum."""
    return Maximum.apply(a, b)


def minimum(a: Arrayish, b: Arrayish) -> "Tensor":
    """Differentiable elementwise minimum (via ``-max(-a, -b)``)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    return -Maximum.apply(-a, -b)


class Tanh(Function):
    def forward(self, a):
        out = np.tanh(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * (1.0 - out * out),)
