"""SAGEConv."""

import numpy as np
import pytest

from repro.core.blocks import build_block
from repro.core.layers import SAGEConv
from repro.core.model import GNNModel
from repro.graph import generators
from repro.tensor.tensor import Tensor
from references import gradcheck


@pytest.fixture
def block_setup():
    g = generators.erdos_renyi(10, 30, seed=2).with_self_loops()
    return g, build_block(g, np.arange(10), 1)


class TestSAGEConv:
    def test_shapes(self, block_setup):
        g, block = block_setup
        layer = SAGEConv(4, 6, rng=np.random.default_rng(0))
        out = layer.forward(block, Tensor(np.ones((10, 4))))
        assert out.shape == (10, 6)

    def test_matches_manual_mean_concat(self, block_setup):
        g, block = block_setup
        layer = SAGEConv(3, 2, activation="none", rng=np.random.default_rng(0))
        h = np.random.default_rng(1).standard_normal((10, 3)).astype(np.float32)
        out = layer.forward(block, Tensor(h)).data
        # Manual reference.
        mean = np.zeros((10, 3), dtype=np.float32)
        counts = np.zeros(10)
        for s, d in zip(g.src, g.dst):
            mean[d] += h[s]
            counts[d] += 1
        mean /= np.maximum(counts, 1)[:, None]
        ref = np.concatenate([h, mean], axis=1) @ layer.linear.weight.data
        ref = ref + layer.linear.bias.data
        assert np.allclose(out, ref, atol=1e-4)

    def test_gradients(self, block_setup):
        g, block = block_setup
        layer = SAGEConv(3, 2, rng=np.random.default_rng(0))
        h = Tensor(
            np.random.default_rng(1).standard_normal((10, 3)), requires_grad=True
        )
        assert gradcheck(lambda h: (layer.forward(block, h) ** 2).sum(), [h])

    def test_factory_and_engines(self, small_graph, cluster2):
        from repro.engines import DepCacheEngine, DepCommEngine
        from repro.training.prep import prepare_graph

        graph = prepare_graph(small_graph, "sage")
        losses = []
        for engine_cls in [DepCacheEngine, DepCommEngine]:
            model = GNNModel.build(
                "sage", graph.feature_dim, 8, graph.num_classes, seed=5
            )
            losses.append(engine_cls(graph, model, cluster2).run_epoch().loss)
        assert losses[0] == pytest.approx(losses[1], rel=1e-5)

    def test_accounting_positive(self, block_setup):
        g, block = block_setup
        layer = SAGEConv(4, 6)
        assert layer.dense_flops(block) > 0
        assert layer.sparse_flops(block) > 0
        assert layer.edge_tensor_bytes(block) > 0
