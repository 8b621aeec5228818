"""K-hop closures and dependency layers (Algorithm 2's BFS)."""

import numpy as np
import pytest

from repro.analysis import analyze_dependencies
from repro.graph import generators
from repro.graph.khop import (
    dependency_layers,
    khop_closure,
    limited_bfs_in,
)
from repro.partition.base import Partitioning
import references


class TestKhopClosure:
    def test_chain_exact(self):
        # 0 -> 1 -> 2 -> 3 -> 4; closure of {4} walks backwards.
        g = generators.chain(5)
        layers, edges = khop_closure(g, np.array([4]), 2)
        assert layers[0].tolist() == [4]
        assert layers[1].tolist() == [3, 4]
        assert layers[2].tolist() == [2, 3, 4]
        assert len(edges[0]) == 1  # in-edge of 4
        assert len(edges[1]) == 2  # in-edges of {3, 4}

    def test_star_closure(self):
        g = references.star(4, inward=True)  # leaves -> hub 0
        layers, edges = khop_closure(g, np.array([0]), 1)
        assert sorted(layers[1].tolist()) == [0, 1, 2, 3, 4]
        assert len(edges[0]) == 4

    def test_zero_hops(self):
        g = generators.ring(4)
        layers, edges = khop_closure(g, np.array([2]), 0)
        assert len(layers) == 1 and len(edges) == 0

    def test_negative_hops_raises(self):
        with pytest.raises(ValueError):
            khop_closure(generators.ring(4), np.array([0]), -1)

    def test_closure_is_monotone(self, medium_graph):
        layers, _ = khop_closure(medium_graph, np.arange(10), 3)
        for smaller, larger in zip(layers, layers[1:]):
            assert np.isin(smaller, larger).all()

    def test_duplicated_seeds_deduplicated(self):
        g = generators.ring(6)
        layers, _ = khop_closure(g, np.array([1, 1, 1]), 1)
        assert layers[0].tolist() == [1]


class TestDependencyLayers:
    def test_same_set_every_layer(self, medium_graph):
        owned = np.arange(50)
        deps = dependency_layers(medium_graph, owned, 3)
        assert len(deps) == 3
        for d in deps[1:]:
            assert np.array_equal(d, deps[0])

    def test_deps_are_remote_in_neighbors(self):
        g = generators.chain(6)
        deps = dependency_layers(g, np.array([3, 4]), 2)
        assert deps[0].tolist() == [2]

    def test_no_deps_when_owning_everything(self, medium_graph):
        deps = dependency_layers(
            medium_graph, np.arange(medium_graph.num_vertices), 2
        )
        assert all(len(d) == 0 for d in deps)


class TestLimitedBfs:
    def test_chain_steps(self):
        g = generators.chain(6)
        vertex_steps, edge_steps = limited_bfs_in(g, [5], 3)
        assert vertex_steps[0].tolist() == [5]
        assert vertex_steps[1].tolist() == [4]
        assert vertex_steps[2].tolist() == [3]
        assert all(len(e) == 1 for e in edge_steps)

    def test_stops_at_source(self):
        g = generators.chain(3)  # 0 -> 1 -> 2
        vertex_steps, edge_steps = limited_bfs_in(g, [1], 5)
        # After reaching 0 there is nothing further; lists are padded.
        assert len(vertex_steps) == 6
        assert sum(len(v) for v in vertex_steps) == 2

    def test_frontiers_disjoint(self, medium_graph):
        vertex_steps, _ = limited_bfs_in(medium_graph, [0, 1], 3)
        seen = set()
        for step in vertex_steps:
            step_set = set(step.tolist())
            assert not (step_set & seen)
            seen |= step_set


def replication_factor(graph, parts, hops):
    """``analyze_dependencies``' replication factor of ``parts``."""
    assignment = np.empty(graph.num_vertices, dtype=np.int64)
    for w, part in enumerate(parts):
        assignment[part] = w
    report = analyze_dependencies(
        graph, Partitioning(assignment, len(parts)), num_layers=hops
    )
    return report.replication_factor


class TestReplicationFactor:
    def test_single_part_is_one(self, medium_graph):
        parts = [np.arange(medium_graph.num_vertices)]
        assert replication_factor(medium_graph, parts, 2) == pytest.approx(1.0)

    def test_bounded_by_num_parts(self, medium_graph):
        parts = np.array_split(np.arange(medium_graph.num_vertices), 4)
        rf = replication_factor(medium_graph, parts, 2)
        assert 1.0 <= rf <= 4.0

    def test_dense_graph_saturates(self):
        g = references.complete(20)
        parts = np.array_split(np.arange(20), 4)
        assert replication_factor(g, parts, 2) == pytest.approx(4.0)
