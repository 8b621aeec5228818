"""GNN layers: GCN, GIN, and GAT on top of the dataflow ops.

Each layer implements the paper's per-layer pattern (Figure 6): an
edge-associated parameterised function and a vertex-associated
parameterised function, glued by ``ScatterToEdge``/``GatherByDst``.
Where the edge function is a plain weighting (GCN, GIN, SAGE -- the
layers with a :meth:`GNNLayer.fused_reducer`), the triple runs as the
single ``ops.fused_scatter_gather`` kernel and no per-edge tensor is
built: such a layer *is* :meth:`GNNLayer.forward` -- that aggregate,
then the layer's :meth:`GNNLayer.vertex` half -- and at layer 1, where
the aggregate is a constant of the graph, engines enter at ``vertex``
with the memoised rows (:mod:`repro.core.feature_aggregate`).  Layers
with edge-associated NN computation (GAT) spell the three ops out.
Layers also *account* for their work -- dense FLOPs (NN ops), sparse
FLOPs (graph ops), and resident edge-tensor bytes -- which is what the
cluster simulator charges to the timeline and the memory model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import ops
from repro.core.blocks import LayerBlock
from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor import nn
from repro.tensor.tensor import Tensor


class GNNLayer(nn.Module):
    """Base class: a graph propagation layer ``h^{l-1} -> h^l``."""

    def __init__(self, in_dim: int, out_dim: int):
        super().__init__()
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim

    # -- numerical execution ------------------------------------------
    # Whether :meth:`vertex` reads the destination's own previous row.
    vertex_reads_dst = True

    def forward(self, block: LayerBlock, h_inputs: Tensor) -> Tensor:
        """A fused-reducer layer is its aggregate, then :meth:`vertex`;
        layers with edge-associated NN computation override this."""
        reducer = self.fused_reducer()
        if reducer is None:
            raise NotImplementedError
        aggregated = ops.fused_scatter_gather(block, h_inputs, reducer)
        return ops.vertex_forward(
            block, h_inputs, aggregated, self.vertex,
            with_dst=self.vertex_reads_dst,
        )

    def vertex(self, h_dst: Optional[Tensor], aggregated: Tensor) -> Tensor:
        """The vertex-associated half of a fused-reducer layer: from the
        destinations' previous rows (``None`` unless
        ``vertex_reads_dst``) and their aggregated neighborhood to
        ``h^l``.  Layer 1 enters here with the memoised aggregate
        (:mod:`repro.core.feature_aggregate`)."""
        raise NotImplementedError

    # -- cost accounting ----------------------------------------------
    def dense_flops(self, block: LayerBlock) -> float:
        """NN (GEMM-like) FLOPs to execute ``block``."""
        raise NotImplementedError

    def sparse_flops(self, block: LayerBlock) -> float:
        """Graph-op (gather/scatter/edge) FLOPs to execute ``block``."""
        raise NotImplementedError

    def edge_tensor_bytes(self, block: LayerBlock) -> int:
        """Bytes of edge-sized intermediates resident during the layer."""
        raise NotImplementedError

    # -- fusion -------------------------------------------------------
    def fused_reducer(self) -> Optional[str]:
        """Reducer name when this layer's Scatter/Edge/Gather triple is
        a plain segment reduction (``"weighted_sum"`` / ``"mean"``), which
        ``forward`` then runs as one kernel; ``None`` for edge-associated
        NN computation (e.g. attention), which the fuse-scatter-gather
        pass must leave unfused on the charged clock too."""
        return None


class GCNConv(GNNLayer):
    """Graph convolution (Kipf & Welling 2017).

    ``h_v = act(W @ sum_u w_uv * h_u)`` over in-neighbors ``u`` (with
    self loops and symmetric normalisation in the edge weights).
    Mirrors the paper's Figure 5 example implementation.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str = "relu",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(in_dim, out_dim)
        self.linear = nn.Linear(in_dim, out_dim, rng=rng)
        self.activation = activation

    vertex_reads_dst = False

    def vertex(self, h_dst: Optional[Tensor], aggregated: Tensor) -> Tensor:
        out = self.linear(aggregated)
        if self.activation == "relu":
            out = out.relu()
        return out

    def fused_reducer(self) -> Optional[str]:
        return "weighted_sum"

    def dense_flops(self, block: LayerBlock) -> float:
        return float(self.linear.flops(block.num_outputs))

    def sparse_flops(self, block: LayerBlock) -> float:
        # gather src rows + weight multiply + scatter-add: ~4 ops/edge/dim.
        return 4.0 * block.num_edges * self.in_dim

    def edge_tensor_bytes(self, block: LayerBlock) -> int:
        # The weighted message, E x in_dim float32 (the gathered source
        # rows are views that can be re-gathered in backward, so only
        # one edge-sized tensor needs to stay on the tape).
        return block.num_edges * self.in_dim * 4


class GINConv(GNNLayer):
    """Graph isomorphism layer (Xu et al. 2019).

    ``h_v = MLP((1 + eps) * h_v + sum_u h_u)`` with a 2-layer MLP.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        eps: float = 0.0,
        activation: str = "relu",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(in_dim, out_dim)
        self.eps = eps
        self.mlp1 = nn.Linear(in_dim, out_dim, rng=rng)
        self.mlp2 = nn.Linear(out_dim, out_dim, rng=rng)
        self.activation = activation

    def vertex(self, h_dst: Tensor, aggregated: Tensor) -> Tensor:
        combined = h_dst * (1.0 + self.eps) + aggregated
        out = self.mlp2(self.mlp1(combined).relu())
        if self.activation == "relu":
            out = out.relu()
        return out

    def fused_reducer(self) -> Optional[str]:
        return "weighted_sum"

    def dense_flops(self, block: LayerBlock) -> float:
        n = block.num_outputs
        return float(self.mlp1.flops(n) + self.mlp2.flops(n))

    def sparse_flops(self, block: LayerBlock) -> float:
        return 4.0 * block.num_edges * self.in_dim + 2.0 * block.num_outputs * self.in_dim

    def edge_tensor_bytes(self, block: LayerBlock) -> int:
        return block.num_edges * self.in_dim * 4


class GATConv(GNNLayer):
    """Graph attention layer (Velickovic et al. 2018), single head.

    Projects inputs, scores every edge with a LeakyReLU attention,
    normalises per destination with a segment softmax, and aggregates.
    GAT is the paper's exemplar of *edge-associated NN computation*
    (ROC cannot run it, Table 5).
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        negative_slope: float = 0.2,
        activation: str = "relu",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(in_dim, out_dim)
        rng = rng or np.random.default_rng()
        self.linear = nn.Linear(in_dim, out_dim, bias=False, rng=rng)
        self.attn_src = nn.Parameter(init.xavier_uniform((out_dim, 1), rng=rng))
        self.attn_dst = nn.Parameter(init.xavier_uniform((out_dim, 1), rng=rng))
        self.negative_slope = negative_slope
        self.activation = activation

    def forward(self, block: LayerBlock, h_inputs: Tensor) -> Tensor:
        projected = self.linear(h_inputs)
        z_src, z_dst = ops.scatter_to_edge(block, projected, with_dst=True)
        scores = F.leaky_relu(
            z_src @ self.attn_src + z_dst @ self.attn_dst, self.negative_slope
        )
        alpha = F.segment_softmax(scores, block.edge_dst_pos, block.num_outputs)
        weighted = z_src * alpha
        out = F.segment_sum(weighted, block.edge_dst_pos, block.num_outputs)
        if self.activation == "relu":
            out = out.relu()
        return out

    def dense_flops(self, block: LayerBlock) -> float:
        # Projection runs on every input row (src and dst share it).
        return float(self.linear.flops(block.num_inputs))

    def sparse_flops(self, block: LayerBlock) -> float:
        e, d = block.num_edges, self.out_dim
        # Two per-edge dot products (2*2*d), softmax (~6), weighting and
        # scatter-add (~4*d), plus the two gathers (~2*d).
        return e * (8.0 * d + 6.0)

    def edge_tensor_bytes(self, block: LayerBlock) -> int:
        # z_src, z_dst, weighted messages, the softmax jacobian
        # workspace and per-edge scalars (scores, alpha, exp, denom):
        # attention keeps far more edge-sized state on the tape than a
        # plain convolution, which is why GAT is the paper's OOM driver.
        return (8 * self.out_dim + 10) * block.num_edges * 4


class SAGEConv(GNNLayer):
    """GraphSAGE layer (Hamilton et al. 2017), mean aggregator.

    ``h_v = act(W @ [h_v || mean_u h_u])``: the destination's previous
    representation is concatenated with the mean of its in-neighbors'.
    Not part of the paper's evaluation, but the natural fourth model its
    API supports (the paper's DepCache lineage builds on GraphSAGE
    sampling).
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str = "relu",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(in_dim, out_dim)
        self.linear = nn.Linear(2 * in_dim, out_dim, rng=rng)
        self.activation = activation

    def vertex(self, h_dst: Tensor, aggregated: Tensor) -> Tensor:
        out = self.linear(F.concat([h_dst, aggregated], axis=-1))
        if self.activation == "relu":
            out = out.relu()
        return out

    def fused_reducer(self) -> Optional[str]:
        return "mean"

    def dense_flops(self, block: LayerBlock) -> float:
        return float(self.linear.flops(block.num_outputs))

    def sparse_flops(self, block: LayerBlock) -> float:
        # Gather + scatter-add + the mean division.
        return 3.0 * block.num_edges * self.in_dim + block.num_outputs * self.in_dim

    def edge_tensor_bytes(self, block: LayerBlock) -> int:
        return block.num_edges * self.in_dim * 4


LAYER_TYPES = {
    "gcn": GCNConv,
    "gin": GINConv,
    "gat": GATConv,
    "sage": SAGEConv,
}
