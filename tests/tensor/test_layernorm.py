"""LayerNorm."""

import numpy as np
import pytest

from repro.tensor.tensor import Tensor
from references import gradcheck
import user_modules


class TestLayerNorm:
    def test_output_standardised(self):
        norm = user_modules.LayerNorm(8)
        x = Tensor(np.random.default_rng(0).standard_normal((5, 8)) * 10 + 3)
        out = norm(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_affine_parameters_apply(self):
        norm = user_modules.LayerNorm(4)
        norm.gamma.data[:] = 2.0
        norm.beta.data[:] = 1.0
        x = Tensor(np.random.default_rng(1).standard_normal((3, 4)))
        out = norm(x).data
        assert np.allclose(out.mean(axis=-1), 1.0, atol=1e-5)

    def test_gradcheck(self):
        norm = user_modules.LayerNorm(5)
        x = Tensor(
            np.random.default_rng(2).standard_normal((4, 5)), requires_grad=True
        )
        assert gradcheck(lambda x: (norm(x) ** 2).sum(), [x])

    def test_parameter_gradients(self):
        norm = user_modules.LayerNorm(5)
        x = Tensor(np.random.default_rng(3).standard_normal((4, 5)))
        assert gradcheck(
            lambda g, b: (norm(x) ** 2).sum(), [norm.gamma, norm.beta]
        )

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="last dim"):
            user_modules.LayerNorm(4)(Tensor(np.zeros((2, 6))))

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            user_modules.LayerNorm(0)

    def test_discovered_parameters(self):
        names = set(dict(user_modules.LayerNorm(3).named_parameters()))
        assert names == {"gamma", "beta"}

    def test_inside_sequential_gnn_stack(self, small_graph, cluster2):
        """LayerNorm between propagation layers trains end to end."""
        from repro.core.blocks import LayerBlock
        from repro.core.layers import GCNConv, GNNLayer
        from repro.core.model import GNNModel
        from repro.engines import DepCommEngine
        from repro.training.prep import prepare_graph
        from repro.training.trainer import DistributedTrainer

        class NormedGCN(GNNLayer):
            def __init__(self, in_dim, out_dim, **kw):
                super().__init__(in_dim, out_dim)
                self.conv = GCNConv(in_dim, out_dim, **kw)
                self.norm = user_modules.LayerNorm(out_dim)

            def forward(self, block: LayerBlock, h):
                return self.norm(self.conv.forward(block, h))

            def dense_flops(self, block):
                return self.conv.dense_flops(block)

            def sparse_flops(self, block):
                return self.conv.sparse_flops(block)

            def edge_tensor_bytes(self, block):
                return self.conv.edge_tensor_bytes(block)

        graph = prepare_graph(small_graph, "gcn")
        rng = np.random.default_rng(0)
        model = GNNModel([
            NormedGCN(graph.feature_dim, 12, rng=rng),
            GCNConv(12, graph.num_classes, activation="none", rng=rng),
        ])
        engine = DepCommEngine(graph, model, cluster2)
        history = DistributedTrainer(engine, lr=0.05).train(epochs=8)
        assert history.reports[-1].loss < history.reports[0].loss
