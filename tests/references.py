"""References the tests check the package against.

- :func:`gradcheck` compares every Function's backward with central
  finite differences, the way ``torch.autograd.gradcheck`` does;
- :func:`segment_mean` is the segment-sum-then-divide mean the fused
  kernel's ``"mean"`` reducer must reproduce;
- :class:`SGD` is plain gradient descent, the simplest optimiser two
  engines can be stepped with and compared bit for bit;
- :func:`rmat`, :func:`star` and :func:`complete` generate input
  graphs of a known shape.

Test modules import it as ``references`` (``tests/`` is on the path).
"""

from typing import Callable, Sequence

import numpy as np

from repro.graph.generators import _dedup
from repro.graph.graph import Graph
from repro.tensor import functional as F
from repro.tensor.optim import Optimizer
from repro.tensor.tensor import Tensor


def numerical_grad(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    wrt: int,
    eps: float = 1e-4,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. one input."""
    target = inputs[wrt]
    grad = np.zeros_like(target.data, dtype=np.float64)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn(*inputs).data.sum())
        flat[i] = original - eps
        minus = float(fn(*inputs).data.sum())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-4,
    atol: float = 1e-2,
    rtol: float = 1e-2,
) -> bool:
    """Compare analytic and numerical gradients for every trainable input.

    Raises ``AssertionError`` with a diagnostic on mismatch; returns True
    on success so it can be used directly in ``assert gradcheck(...)``.
    """
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    out.backward(np.ones_like(out.data))
    for i, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        analytic = t.grad
        if analytic is None:
            raise AssertionError(f"input {i} received no gradient")
        numeric = numerical_grad(fn, inputs, wrt=i, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.max(np.abs(analytic - numeric))
            raise AssertionError(
                f"gradient mismatch on input {i}: max abs err {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True


def segment_mean(x: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Mean of rows grouped by ``segments``; empty segments yield zeros."""
    segments = np.asarray(segments, dtype=np.int64)
    totals = F.segment_sum(x, segments, num_segments)
    counts = np.bincount(segments, minlength=num_segments).astype(x.dtype)
    counts = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (x.ndim - 1))
    return totals / counts


class SGD(Optimizer):
    """Stochastic gradient descent, without momentum or weight decay."""

    state_kind = "sgd"

    def __init__(self, params, lr: float = 0.01):
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def step(self) -> None:
        for p in self.params:
            if p.grad is not None:
                p.data = p.data - self.lr * p.grad


def rmat(
    num_vertices: int,
    num_edges: int,
    a: float = 0.45,
    b: float = 0.15,
    c: float = 0.15,
    seed: int = 0,
    bidirectional: bool = False,
) -> Graph:
    """R-MAT generator: recursively choose a quadrant per bit of the id.

    ``a + b + c + d = 1`` with ``d = 1 - a - b - c``.  The quadrant
    weights control two properties that matter for the reproduction:

    - *skew*: asymmetry between ``a`` and ``d`` concentrates edges on
      low-id hubs (power-law-like degrees);
    - *locality*: diagonal dominance (``a + d`` large) makes src and dst
      share high-order id bits, so edges connect nearby ids.  Chunk
      partitioning assigns contiguous id ranges to workers, so high
      locality means few remote dependencies --- the property that makes
      web graphs (Google) DepCache-friendly and social networks (Pokec)
      DepComm-friendly.

    Duplicate edges and self loops are dropped; we oversample by 25% to
    roughly compensate.
    """
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("rmat probabilities must sum to at most 1")
    rng = np.random.default_rng(seed)
    bits = max(1, int(np.ceil(np.log2(max(num_vertices, 2)))))
    want = int(num_edges * 1.25) + 16
    src = np.zeros(want, dtype=np.int64)
    dst = np.zeros(want, dtype=np.int64)
    for _ in range(bits):
        r = rng.random(want)
        src_bit = (r >= a + b).astype(np.int64)
        # Quadrants: a -> (0,0), b -> (0,1), c -> (1,0), d -> (1,1).
        dst_bit = ((r >= a) & (r < a + b) | (r >= a + b + c)).astype(np.int64)
        src = src * 2 + src_bit
        dst = dst * 2 + dst_bit
    src %= num_vertices
    dst %= num_vertices
    src, dst = _dedup(src, dst)
    src, dst = src[:num_edges], dst[:num_edges]
    if bidirectional:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        src, dst = _dedup(src, dst)
    return Graph(num_vertices, src, dst, name="rmat")


def star(num_leaves: int, inward: bool = True) -> Graph:
    """Star graph; ``inward=True`` points leaves at the hub (vertex 0)."""
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    hub = np.zeros(num_leaves, dtype=np.int64)
    if inward:
        return Graph(num_leaves + 1, leaves, hub, name="star")
    return Graph(num_leaves + 1, hub, leaves, name="star")


def complete(num_vertices: int) -> Graph:
    """Complete directed graph without self loops."""
    grid_src, grid_dst = np.meshgrid(
        np.arange(num_vertices), np.arange(num_vertices), indexing="ij"
    )
    src = grid_src.reshape(-1)
    dst = grid_dst.reshape(-1)
    keep = src != dst
    return Graph(num_vertices, src[keep], dst[keep], name="complete")
