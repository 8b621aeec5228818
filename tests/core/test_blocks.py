"""Layer blocks: construction, index spaces, sampled variant."""

import numpy as np
import pytest

from repro.core.blocks import build_block, build_block_from_edges, closure_block
from repro.graph import generators
from repro.graph.graph import Graph


class TestBuildBlock:
    def test_inputs_superset_of_compute(self, tiny_graph):
        block = build_block(tiny_graph, np.array([1, 2]))
        assert np.isin(block.compute_vertices, block.input_vertices).all()

    def test_edges_are_in_edges_of_compute(self, tiny_graph):
        block = build_block(tiny_graph, np.array([1]))
        # Vertex 1's in-edges come from 0, 3, 5.
        assert block.num_edges == 3
        assert sorted(block.edge_src_global.tolist()) == [0, 3, 5]

    def test_positions_consistent(self, medium_graph):
        block = build_block(medium_graph, np.arange(40))
        # src positions point at the right global ids.
        assert np.array_equal(
            block.input_vertices[block.edge_src_pos], block.edge_src_global
        )
        # dst positions index compute vertices whose in-edges these are.
        dst_globals = block.compute_vertices[block.edge_dst_pos]
        assert np.isin(dst_globals, np.arange(40)).all()

    def test_compute_pos_in_inputs(self, medium_graph):
        block = build_block(medium_graph, np.arange(10, 30))
        recovered = block.input_vertices[block.compute_pos_in_inputs]
        assert np.array_equal(recovered, block.compute_vertices)

    def test_edge_weights_follow_edges(self, tiny_graph):
        tiny_graph.edge_weight = np.arange(8, dtype=np.float32)
        tiny_graph._csc = None  # invalidate cache
        block = build_block(tiny_graph, np.array([1]))
        # Weights must match the selected edge ids.
        assert np.allclose(
            block.edge_weight, tiny_graph.edge_weight[block.edge_ids]
        )

    def test_vertex_without_in_edges(self):
        g = generators.chain(4)
        block = build_block(g, np.array([0]))
        assert block.num_edges == 0
        assert block.num_outputs == 1

    def test_empty_compute_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            build_block(tiny_graph, np.array([], dtype=np.int64))

    def test_repr(self, tiny_graph):
        assert "LayerBlock" in repr(build_block(tiny_graph, np.array([1])))


class TestDestinationPositions:
    """CSC runs give each edge's destination row without a lookup."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_build_and_closure_block_match_searchsorted(self, seed):
        er = generators.erdos_renyi(60, 240, seed=seed)
        # Vertices 60..69 have no edges at all.
        g = Graph(70, er.src, er.dst)
        rng = np.random.default_rng(seed)
        compute = np.sort(np.concatenate([rng.choice(60, size=25, replace=False), [61, 65]]))
        counts, srcs, _ = g.csc.select(compute)
        assert (counts == 0).any()
        expected = np.searchsorted(compute, np.repeat(compute, counts))
        inputs = np.union1d(compute, srcs)
        for block in (
            build_block(g, compute),
            closure_block(g, compute, inputs, g.csc.select(compute)),
        ):
            assert block.edge_dst_pos.dtype == np.int64
            assert np.array_equal(block.edge_dst_pos, expected)

    def test_memo_is_keyed_by_compute_set(self, tiny_graph):
        block = build_block(tiny_graph, np.array([2, 1]))
        assert build_block(tiny_graph, np.array([1, 2])) is block


class TestBuildBlockFromEdges:
    def test_sampled_subset(self, tiny_graph):
        # Keep only one of vertex 1's three in-edges.
        block = build_block_from_edges(
            tiny_graph,
            compute_vertices=np.array([1]),
            src=np.array([3]),
            dst=np.array([1]),
            edge_ids=np.array([1]),
        )
        assert block.num_edges == 1
        assert block.input_vertices.tolist() == [1, 3]

    def test_compute_without_edges(self, tiny_graph):
        block = build_block_from_edges(
            tiny_graph, np.array([0, 2]),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        assert block.num_edges == 0
        assert block.num_outputs == 2
