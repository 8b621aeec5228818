"""GNN layers: numerics vs dense references, gradients, accounting."""

import numpy as np
import pytest

from repro.core.blocks import build_block
from repro.core.layers import GATConv, GCNConv, GINConv
from repro.graph import generators
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from references import gradcheck


@pytest.fixture
def graph_and_block():
    g = generators.erdos_renyi(10, 30, seed=2).gcn_normalized()
    return g, build_block(g, np.arange(10))


class TestGCNConv:
    def test_matches_dense_reference(self, graph_and_block):
        g, block = graph_and_block
        layer = GCNConv(4, 3, rng=np.random.default_rng(0))
        h = np.random.default_rng(1).standard_normal((10, 4)).astype(np.float32)
        out = layer.forward(block, Tensor(h))
        dense = np.zeros((10, 10), dtype=np.float32)
        dense[g.dst, g.src] = g.edge_weight
        expected = np.maximum(
            (dense @ h) @ layer.linear.weight.data + layer.linear.bias.data, 0.0
        )
        assert np.allclose(out.data, expected, atol=1e-5)

    def test_no_activation_on_logits_layer(self, graph_and_block):
        g, block = graph_and_block
        layer = GCNConv(4, 3, activation="none", rng=np.random.default_rng(0))
        h = np.random.default_rng(1).standard_normal((10, 4))
        out = layer.forward(block, Tensor(h))
        assert (out.data < 0).any()  # relu would have clipped

    def test_parameter_gradients(self, graph_and_block):
        g, block = graph_and_block
        layer = GCNConv(3, 2, rng=np.random.default_rng(0))
        h = Tensor(np.random.default_rng(1).standard_normal((10, 3)))
        assert gradcheck(
            lambda w, b: (layer.forward(block, h) ** 2).sum(),
            [layer.linear.weight, layer.linear.bias],
        )

    def test_input_gradients(self, graph_and_block):
        g, block = graph_and_block
        layer = GCNConv(3, 2, activation="none", rng=np.random.default_rng(0))
        h = Tensor(
            np.random.default_rng(1).standard_normal((10, 3)), requires_grad=True
        )
        assert gradcheck(lambda h: (layer.forward(block, h) ** 2).sum(), [h])

    def test_accounting_positive_and_monotone(self, graph_and_block):
        g, block = graph_and_block
        small = GCNConv(4, 3)
        large = GCNConv(40, 3)
        assert 0 < small.sparse_flops(block) < large.sparse_flops(block)
        assert 0 < small.edge_tensor_bytes(block) < large.edge_tensor_bytes(block)
        assert small.dense_flops(block) > 0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            GCNConv(0, 3)


class TestGINConv:
    def test_shapes(self, graph_and_block):
        g, block = graph_and_block
        layer = GINConv(4, 6, rng=np.random.default_rng(0))
        out = layer.forward(block, Tensor(np.ones((10, 4))))
        assert out.shape == (10, 6)

    def test_eps_changes_self_weight(self, graph_and_block):
        g, block = graph_and_block
        rng = np.random.default_rng(0)
        a = GINConv(4, 4, rng=np.random.default_rng(0))
        b = GINConv(4, 4, rng=np.random.default_rng(0))
        b.eps = 1.0
        h = Tensor(rng.standard_normal((10, 4)))
        assert not np.allclose(a.forward(block, h).data, b.forward(block, h).data)

    def test_gradients(self, graph_and_block):
        g, block = graph_and_block
        layer = GINConv(3, 3, rng=np.random.default_rng(0))
        h = Tensor(
            np.random.default_rng(1).standard_normal((10, 3)), requires_grad=True
        )
        assert gradcheck(lambda h: (layer.forward(block, h)).sum(), [h])

    def test_two_linears_discovered(self):
        layer = GINConv(3, 5)
        names = set(dict(layer.named_parameters()))
        assert {"mlp1.weight", "mlp2.weight"} <= names


class TestGATConv:
    def test_attention_rows_convex(self, graph_and_block):
        """GAT output is a convex combination of projected sources."""
        g, block = graph_and_block
        layer = GATConv(4, 3, activation="none", rng=np.random.default_rng(0))
        h = np.random.default_rng(1).standard_normal((10, 4)).astype(np.float32)
        projected = h @ layer.linear.weight.data
        out = layer.forward(block, Tensor(h)).data
        # Every output row is within the min/max of the projected inputs.
        assert (out <= projected.max(axis=0) + 1e-4).all()
        assert (out >= projected.min(axis=0) - 1e-4).all()

    def test_attention_sums_to_one(self, graph_and_block):
        g, block = graph_and_block
        layer = GATConv(4, 3, rng=np.random.default_rng(0))
        h = Tensor(np.random.default_rng(1).standard_normal((10, 4)))
        projected = layer.linear(h)
        z_src = F.index_select(projected, block.edge_src_pos)
        dst_rows = block.compute_pos_in_inputs[block.edge_dst_pos]
        z_dst = F.index_select(projected, dst_rows)
        scores = F.leaky_relu(z_src @ layer.attn_src + z_dst @ layer.attn_dst)
        alpha = F.segment_softmax(scores, block.edge_dst_pos, block.num_outputs)
        sums = F.segment_sum(alpha, block.edge_dst_pos, block.num_outputs).data
        covered = np.unique(block.edge_dst_pos)
        assert np.allclose(sums[covered], 1.0, atol=1e-5)

    def test_gradients(self, graph_and_block):
        g, block = graph_and_block
        layer = GATConv(3, 2, rng=np.random.default_rng(0))
        h = Tensor(
            np.random.default_rng(2).standard_normal((10, 3)), requires_grad=True
        )
        assert gradcheck(
            lambda h: (layer.forward(block, h) ** 2).sum(), [h],
            atol=3e-2, rtol=3e-2,
        )

    def test_edge_tensor_bytes_heavier_than_gcn(self, graph_and_block):
        g, block = graph_and_block
        gat = GATConv(16, 16)
        gcn = GCNConv(16, 16)
        assert gat.edge_tensor_bytes(block) > gcn.edge_tensor_bytes(block)
