"""The paper's ten dataflow operations (Section 4.1, Figure 6).

Forward flow:  ``GetFromDepNbr -> ScatterToEdge -> EdgeForward ->
GatherByDst -> VertexForward``.  Backward flow (``VertexBackward ->
ScatterBackToEdge -> EdgeBackward -> GatherBySrc -> PostToDepNbr``) is
*auto-generated*: because every forward op below is built from autograd
:class:`~repro.tensor.tensor.Function` primitives, calling
``.backward()`` on a layer's output replays exactly the backward chain
of Figure 6 -- ``ScatterToEdge``'s adjoint is ``GatherBySrc``,
``GatherByDst``'s adjoint is ``ScatterBackToEdge``, and the NN
functions' adjoints come from the tape.  The engines implement the two
dependency-management endpoints (``GetFromDepNbr`` / ``PostToDepNbr``),
which is the paper's point: they are the *only* place distribution is
visible.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.blocks import LayerBlock
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


def scatter_to_edge(
    block: LayerBlock, h_inputs: Tensor, with_dst: bool = False
) -> Tuple[Tensor, Optional[Tensor]]:
    """Scatter input representations onto edges.

    Returns ``(f_src, f_dst)``: per-edge source and destination
    representations (the adjoint of this gather is ``GatherBySrc``).
    ``f_dst`` is an E x d copy only attention-style edge functions
    read, so it is ``None`` unless ``with_dst`` asks for it.
    """
    f_src = F.index_select(h_inputs, block.edge_src_pos)
    if not with_dst:
        return f_src, None
    dst_rows = block.compute_pos_in_inputs[block.edge_dst_pos]
    return f_src, F.index_select(h_inputs, dst_rows)


def edge_forward(
    block: LayerBlock,
    f_src: Tensor,
    f_dst: Tensor,
    fn: Callable[[Tensor, Tensor, np.ndarray], Tensor],
) -> Tensor:
    """Apply the edge-associated parameterised function on every edge."""
    return fn(f_src, f_dst, block.edge_weight)


def gather_by_dst(block: LayerBlock, messages: Tensor, agg: str = "sum") -> Tensor:
    """Aggregate edge messages by destination vertex.

    Only commutative/associative aggregators are allowed (the paper
    names min/max/sum); this reproduction ships sum and mean.
    """
    if agg == "sum":
        return F.segment_sum(messages, block.edge_dst_pos, block.num_outputs)
    if agg == "mean":
        return F.segment_mean(messages, block.edge_dst_pos, block.num_outputs)
    raise ValueError(f"unsupported aggregator {agg!r} (use 'sum' or 'mean')")


def fused_scatter_gather(
    block: LayerBlock, h_inputs: Tensor, reducer: str
) -> Tensor:
    """ScatterToEdge + EdgeForward + GatherByDst as one segment kernel.

    What every simple-reducer layer runs (and what
    :class:`~repro.execution.passes.FuseScatterGatherPass` prices):
    ``"weighted_sum"`` multiplies each source row by the edge weight
    before the sum (GCN/GIN message), ``"mean"`` averages the raw
    source rows (SAGE).  Bit-identical to the three-op chain, without
    its E x d message tensor -- see
    :class:`repro.tensor.functional.FusedGatherScatter`.
    """
    return F.fused_gather_scatter(
        h_inputs,
        block.edge_src_pos,
        block.edge_dst_pos,
        block.num_outputs,
        weights=block.edge_weight if reducer == "weighted_sum" else None,
        reducer=reducer,
    )


def vertex_forward(
    block: LayerBlock,
    h_inputs: Tensor,
    aggregated: Tensor,
    fn: Callable[[Optional[Tensor], Tensor], Tensor],
    with_dst: bool = True,
) -> Tensor:
    """Apply the vertex-associated parameterised function.

    ``fn`` receives the destination's previous representation and the
    aggregated neighborhood representation.  A vertex function that
    reads only the aggregate (GCN) passes ``with_dst=False`` and gets
    ``None`` in place of the num_outputs x d gather.
    """
    h_dst = (
        F.index_select(h_inputs, block.compute_pos_in_inputs) if with_dst else None
    )
    return fn(h_dst, aggregated)
