"""The dataflow ops: scatter/gather numerics against manual computation."""

import numpy as np
import pytest

from repro.core import ops
from repro.core.blocks import build_block
from repro.graph import generators
from repro.tensor.tensor import Tensor
import references
from references import gradcheck


@pytest.fixture
def star_block():
    g = references.star(3, inward=True)  # 1,2,3 -> 0
    return g, build_block(g, np.array([0]), 1)


class TestScatterToEdge:
    def test_f_src_rows(self, star_block):
        g, block = star_block
        h = Tensor(np.arange(8.0).reshape(4, 2))
        f_src, f_dst = ops.scatter_to_edge(block, h)
        assert f_dst is None  # built only on request
        # Sources are 1, 2, 3 (rows of the input space in edge order).
        src_ids = block.input_vertices[block.edge_src_pos]
        assert np.allclose(f_src.data, h.data[src_ids])

    def test_f_dst_rows_are_destination(self, star_block):
        g, block = star_block
        h = Tensor(np.arange(8.0).reshape(4, 2))
        _, f_dst = ops.scatter_to_edge(block, h, with_dst=True)
        # All three edges point at vertex 0 (input row 0).
        assert np.allclose(f_dst.data, np.tile(h.data[0], (3, 1)))


class TestGatherByDst:
    def test_sum(self, star_block):
        g, block = star_block
        messages = Tensor(np.ones((3, 2)))
        out = ops.gather_by_dst(block, messages)
        assert np.allclose(out.data, [[3.0, 3.0]])


class TestEdgeAndVertexForward:
    def test_edge_forward_applies_fn(self, star_block):
        g, block = star_block
        f_src = Tensor(np.ones((3, 2)))
        out = ops.edge_forward(
            block, f_src, None, lambda s, d, w: s * Tensor(w.reshape(-1, 1))
        )
        assert np.allclose(out.data, block.edge_weight.reshape(-1, 1))

    def test_vertex_forward_receives_dst_rows(self, star_block):
        g, block = star_block
        h = Tensor(np.arange(8.0).reshape(4, 2))
        agg = Tensor(np.zeros((1, 2)))
        out = ops.vertex_forward(block, h, agg, lambda h_dst, a: h_dst + a)
        assert np.allclose(out.data, h.data[[0]])

    def test_vertex_forward_without_dst_gathers_nothing(self, star_block, monkeypatch):
        g, block = star_block
        gathers = []
        monkeypatch.setattr(
            ops.F, "index_select", lambda *args: gathers.append(args)
        )
        agg = Tensor(np.ones((1, 2)))
        out = ops.vertex_forward(
            block, Tensor(np.zeros((4, 2))), agg,
            lambda h_dst, a: a if h_dst is None else None, with_dst=False,
        )
        assert out is agg and not gathers

    def test_full_pipeline_matches_dense(self):
        """ScatterToEdge -> EdgeForward -> GatherByDst == A @ H."""
        g = generators.erdos_renyi(12, 40, seed=3).gcn_normalized()
        block = build_block(g, np.arange(12), 1)
        rng = np.random.default_rng(0)
        h = Tensor(rng.standard_normal((12, 5)))
        f_src, _ = ops.scatter_to_edge(block, h)
        msg = ops.edge_forward(
            block, f_src, None, lambda s, d, w: s * Tensor(w.reshape(-1, 1))
        )
        agg = ops.gather_by_dst(block, msg)
        dense = np.zeros((12, 12))
        dense[g.dst, g.src] = g.edge_weight
        assert np.allclose(agg.data, dense @ h.data, atol=1e-5)

    def test_pipeline_differentiable(self):
        g = generators.erdos_renyi(8, 20, seed=4).gcn_normalized()
        block = build_block(g, np.arange(8), 1)
        h = Tensor(
            np.random.default_rng(1).standard_normal((8, 3)), requires_grad=True
        )

        def fn(h):
            f_src, _ = ops.scatter_to_edge(block, h)
            msg = ops.edge_forward(
                block, f_src, None, lambda s, d, w: s * Tensor(w.reshape(-1, 1))
            )
            return (ops.gather_by_dst(block, msg) ** 2).sum()

        assert gradcheck(fn, [h])
