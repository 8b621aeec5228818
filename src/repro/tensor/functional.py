"""Functional ops built on the autograd tape.

Besides the usual NN nonlinearities, this module provides the gather /
scatter / segment primitives that GNN message passing needs: they are
the numpy equivalents of the sparse kernels the paper offloads to the
GPU (``ScatterToEdge`` and ``GatherByDst`` in Section 4.1 are expressed
with :func:`index_select` and :func:`segment_sum`).  A layer whose
edge function is a plain weighting runs the whole
``ScatterToEdge -> EdgeForward -> GatherByDst`` triple, forward and
adjoint, as :func:`fused_gather_scatter`: one kernel, no E x d tensor.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.tensor.scatter import gather_scatter_rows, scatter_rows
from repro.tensor.tensor import Function, Tensor


# ----------------------------------------------------------------------
# Gather / scatter primitives
# ----------------------------------------------------------------------
class IndexSelect(Function):
    """``out[i] = x[indices[i]]`` along axis 0 (edge scatter / row gather)."""

    def __init__(self, *inputs, indices: np.ndarray):
        super().__init__(*inputs)
        self.indices = indices

    def forward(self, x):
        self.save_for_backward(x.shape)
        return x[self.indices]

    def backward(self, grad):
        (shape,) = self.saved
        return (scatter_rows(self.indices, grad, shape[0]),)


class SegmentSum(Function):
    """``out[s] = sum_{i: seg[i]==s} x[i]`` (dst-grouped aggregation)."""

    def __init__(self, *inputs, segments: np.ndarray, num_segments: int):
        super().__init__(*inputs)
        self.segments = segments
        self.num_segments = num_segments

    def forward(self, x):
        return scatter_rows(self.segments, x, self.num_segments)

    def backward(self, grad):
        return (grad[self.segments],)


def index_select(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``x`` by integer ``indices`` (differentiable)."""
    indices = np.asarray(indices, dtype=np.int64)
    return IndexSelect.apply(x, indices=indices)


def segment_sum(x: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` grouped by ``segments`` into ``num_segments`` rows."""
    segments = np.asarray(segments, dtype=np.int64)
    if len(segments) != len(x):
        raise ValueError(
            f"segments has {len(segments)} entries for {len(x)} rows"
        )
    return SegmentSum.apply(x, segments=segments, num_segments=num_segments)


class FusedGatherScatter(Function):
    """Gather-by-src + (optional weight) + segment-sum as one kernel.

    The fused form of ``IndexSelect -> Mul -> SegmentSum`` (and the
    trailing count division for ``"mean"``).  Forward is
    :func:`~repro.tensor.scatter.gather_scatter_rows` over ``(src_pos,
    segments)`` and backward the same kernel with the roles swapped,
    so neither direction builds the per-edge tensor and the tape saves
    only a shape and a dtype.  Every output cell receives the additions
    the op chain performs, in edge order, so value and gradient are
    bit-identical to it.
    """

    def __init__(
        self,
        *inputs,
        src_pos: np.ndarray,
        segments: np.ndarray,
        num_segments: int,
        weights: Optional[np.ndarray],
        reducer: str,
    ):
        super().__init__(*inputs)
        self.src_pos = src_pos
        self.segments = segments
        self.num_segments = num_segments
        self.weights = weights
        self.reducer = reducer

    def _counts(self, ndim: int, dtype) -> np.ndarray:
        # Exactly the divisor of a segment-sum-then-divide mean:
        # bincount, clamp, broadcast.
        counts = np.bincount(
            self.segments, minlength=self.num_segments
        ).astype(dtype)
        return np.maximum(counts, 1.0).reshape(
            (self.num_segments,) + (1,) * (ndim - 1)
        )

    def forward(self, x):
        out = gather_scatter_rows(
            x, self.src_pos, self.segments, self.weights, self.num_segments
        )
        # The divisor's dtype follows the *message* rows (what SegmentSum
        # sees in the op chain, weight promotion included), not the input.
        self.save_for_backward(x.shape, out.dtype)
        if self.reducer == "mean":
            out = out / self._counts(out.ndim, out.dtype)
        return out

    def backward(self, grad):
        shape, dtype = self.saved
        if self.reducer == "mean":
            grad = grad / self._counts(len(shape), dtype)
        return (
            gather_scatter_rows(
                grad, self.segments, self.src_pos, self.weights, shape[0]
            ),
        )


def fused_gather_scatter(
    x: Tensor,
    src_pos: np.ndarray,
    segments: np.ndarray,
    num_segments: int,
    weights: Optional[np.ndarray] = None,
    reducer: str = "sum",
) -> Tensor:
    """One-kernel ``x[src_pos] (* weights)`` summed (or meaned) by
    ``segments`` -- the fused Scatter/Edge/Gather step."""
    if reducer not in ("sum", "weighted_sum", "mean"):
        raise ValueError(f"unsupported fused reducer {reducer!r}")
    if reducer == "weighted_sum" and weights is None:
        raise ValueError("weighted_sum fusion needs edge weights")
    src_pos = np.asarray(src_pos, dtype=np.int64)
    segments = np.asarray(segments, dtype=np.int64)
    if len(src_pos) != len(segments):
        raise ValueError(
            f"src_pos has {len(src_pos)} entries for {len(segments)} segments"
        )
    if reducer != "weighted_sum":
        weights = None
    elif len(weights) != len(segments):
        raise ValueError(
            f"weights has {len(weights)} entries for {len(segments)} edges"
        )
    return FusedGatherScatter.apply(
        x,
        src_pos=src_pos,
        segments=segments,
        num_segments=num_segments,
        weights=weights,
        reducer=reducer,
    )


def segment_softmax(scores: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over rows sharing a segment id (GAT attention normalisation).

    The per-segment max shift is detached (a constant under the softmax),
    matching the standard numerically-stable formulation.
    """
    segments = np.asarray(segments, dtype=np.int64)
    shift = np.full((num_segments,) + scores.shape[1:], -np.inf, dtype=scores.dtype)
    np.maximum.at(shift, segments, scores.data)
    shift = np.where(np.isinf(shift), 0.0, shift)
    shifted = scores - Tensor(shift[segments])
    exp = shifted.exp()
    denom = segment_sum(exp, segments, num_segments)
    denom_per_row = index_select(denom, segments)
    return exp / (denom_per_row + 1e-16)


# ----------------------------------------------------------------------
# Nonlinearities and classifiers
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    return x.relu()


#: Slope of :func:`leaky_relu` below zero (GAT's attention scores).
NEGATIVE_SLOPE = 0.2


class LeakyRelu(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.where(a > 0, a, NEGATIVE_SLOPE * a)

    def backward(self, grad):
        (a,) = self.saved
        return (np.where(a > 0, grad, NEGATIVE_SLOPE * grad),)


def leaky_relu(x: Tensor) -> Tensor:
    return LeakyRelu.apply(x)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


class Dropout(Function):
    def __init__(self, *inputs, p: float, rng: np.random.Generator):
        super().__init__(*inputs)
        self.p = p
        self.rng = rng

    def forward(self, a):
        keep = 1.0 - self.p
        mask = (self.rng.random(a.shape) < keep).astype(a.dtype) / keep
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


def dropout(
    x: Tensor,
    p: float = 0.5,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None:
        rng = np.random.default_rng()
    return Dropout.apply(x, p=p, rng=rng)


class Concat(Function):
    def __init__(self, *inputs, axis: int):
        super().__init__(*inputs)
        self.axis = axis

    def forward(self, *arrays):
        self.save_for_backward([a.shape[self.axis] for a in arrays])
        return np.concatenate(arrays, axis=self.axis)

    def backward(self, grad):
        sizes = self.saved[0]
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(grad, splits, axis=self.axis))


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    return Concat.apply(*tensors, axis=axis)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log likelihood over integer ``targets`` (mean-reduced)."""
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.shape[0]
    if n == 0:
        raise ValueError("nll_loss on an empty batch")
    picked = log_probs[(np.arange(n), targets)]
    return -picked.sum() / float(n)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy with integer targets."""
    return nll_loss(log_softmax(logits, axis=-1), targets)
