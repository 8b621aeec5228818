"""Graph storage: validation, degrees, normalisation, subgraphs."""

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.graph import Graph


class TestConstruction:
    def test_basic(self, tiny_graph):
        assert tiny_graph.num_vertices == 6
        assert tiny_graph.num_edges == 8
        assert tiny_graph.feature_dim == 8

    def test_rejects_out_of_range_src(self):
        with pytest.raises(ValueError, match="src"):
            Graph(2, np.array([0, 5]), np.array([1, 1]))

    def test_rejects_out_of_range_dst(self):
        with pytest.raises(ValueError, match="dst"):
            Graph(2, np.array([0, 1]), np.array([1, -1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            Graph(3, np.array([0]), np.array([1, 2]))

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_rejects_edge_weight_of_the_wrong_length(self, count):
        with pytest.raises(ValueError, match=f"^edge_weight has {count} "
                                             "entries for 2 edges$"):
            Graph(4, [0, 1], [1, 2], edge_weight=np.ones(count))

    def test_default_edge_weights_are_ones(self, tiny_graph):
        assert np.allclose(tiny_graph.edge_weight, 1.0)

    def test_feature_dim_without_features(self):
        g = Graph(2, np.array([0]), np.array([1]))
        with pytest.raises(ValueError, match="no features"):
            g.feature_dim

    def test_stats(self, tiny_graph):
        s = tiny_graph.stats()
        assert s["num_vertices"] == 6
        assert s["num_edges"] == 8
        assert s["max_in_degree"] == 3


class TestDegrees:
    def test_in_degrees(self, tiny_graph):
        deg = tiny_graph.in_degrees()
        assert deg[1] == 3  # edges from 0, 3, 5
        assert deg[2] == 3  # edges from 1, 4, 0
        assert deg.sum() == tiny_graph.num_edges

class TestCsrCsc:
    def test_csc_groups_by_destination(self, tiny_graph):
        csc = tiny_graph.csc
        assert sorted(csc.neighbors(1).tolist()) == [0, 3, 5]

    def test_csr_groups_by_source(self, tiny_graph):
        csr = tiny_graph.csr
        assert sorted(csr.neighbors(0).tolist()) == [1, 2]

    def test_csr_csc_same_edges(self, medium_graph):
        g = medium_graph
        csr_key = np.repeat(np.arange(g.num_vertices), np.diff(g.csr.indptr))
        csc_key = np.repeat(np.arange(g.num_vertices), np.diff(g.csc.indptr))
        csr_pairs = set(zip(csr_key.tolist(), g.csr.other.tolist()))
        csc_pairs = set(zip(g.csc.other.tolist(), csc_key.tolist()))
        assert csr_pairs == csc_pairs

    def test_lazy_and_cached(self, tiny_graph):
        assert tiny_graph.csr is tiny_graph.csr


class TestSelfLoopsAndNorm:
    def test_with_self_loops_adds_missing_only(self):
        g = Graph(3, np.array([0, 1]), np.array([0, 2]))  # 0 has a loop
        looped = g.with_self_loops()
        assert looped.num_edges == 2 + 2  # loops for 1 and 2 added
        loops = looped.src == looped.dst
        assert loops.sum() == 3

    def test_gcn_normalized_weights(self):
        g = generators.ring(4).gcn_normalized()
        # Every vertex has in-degree 2 (ring edge + self loop).
        assert np.allclose(g.edge_weight, 0.5)

    def test_gcn_normalized_is_a_copy(self, tiny_graph):
        norm = tiny_graph.gcn_normalized()
        assert norm is not tiny_graph
        assert tiny_graph.num_edges == 8  # original untouched

    def test_masks_carried_over(self, tiny_graph):
        norm = tiny_graph.gcn_normalized()
        assert norm.train_mask is tiny_graph.train_mask


class TestSplit:
    def test_split_partitions_vertices(self, tiny_graph):
        total = (
            tiny_graph.train_mask.sum()
            + tiny_graph.val_mask.sum()
            + tiny_graph.test_mask.sum()
        )
        assert total == tiny_graph.num_vertices
        assert not (tiny_graph.train_mask & tiny_graph.test_mask).any()

    def test_split_fraction_validation(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.set_split(train_fraction=0.9, val_fraction=0.2)
        with pytest.raises(ValueError):
            tiny_graph.set_split(train_fraction=0.0)

    def test_split_deterministic_with_rng(self, tiny_graph):
        tiny_graph.set_split(rng=np.random.default_rng(5))
        first = tiny_graph.train_mask.copy()
        tiny_graph.set_split(rng=np.random.default_rng(5))
        assert np.array_equal(first, tiny_graph.train_mask)
