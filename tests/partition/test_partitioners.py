"""Partitioners: coverage, balance, quality, and the Partitioning API."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import generators
from repro.partition import (
    Partitioning,
    chunk_partition,
    fennel_partition,
    get_partitioner,
    hash_partition,
    metis_like_partition,
)
import references

ALL = [chunk_partition, hash_partition, fennel_partition, metis_like_partition]


@pytest.fixture
def graph():
    g = generators.locality_graph(120, 700, locality_width=0.03,
                                  global_fraction=0.3, seed=2)
    return g


class TestCommonInvariants:
    @pytest.mark.parametrize("partition", ALL)

    def test_covers_every_vertex(self, graph, partition):
        p = partition(graph, 4)
        assert len(p.assignment) == graph.num_vertices
        assert set(np.unique(p.assignment)) == {0, 1, 2, 3}

    @pytest.mark.parametrize("partition", ALL)

    def test_parts_disjoint_and_complete(self, graph, partition):
        p = partition(graph, 4)
        combined = np.concatenate(p.parts())
        assert sorted(combined.tolist()) == list(range(graph.num_vertices))

    @pytest.mark.parametrize("partition", ALL)

    def test_no_empty_part(self, graph, partition):
        p = partition(graph, 4)
        assert all(len(part) > 0 for part in p.parts())

    @pytest.mark.parametrize("partition", ALL)

    def test_single_part(self, graph, partition):
        p = partition(graph, 1)
        assert (p.assignment == 0).all()

    @pytest.mark.parametrize("partition", ALL)

    def test_rejects_zero_parts(self, graph, partition):
        with pytest.raises(ValueError):
            partition(graph, 0)

    @pytest.mark.parametrize("partition", ALL)

    def test_rejects_more_parts_than_vertices(self, partition):
        g = generators.ring(3)
        with pytest.raises(ValueError):
            partition(g, 5)

    @pytest.mark.parametrize("partition", ALL)

    def test_deterministic(self, graph, partition):
        a = partition(graph, 4)
        b = partition(graph, 4)
        assert np.array_equal(a.assignment, b.assignment)

    @pytest.mark.parametrize("partition", ALL)

    def test_reasonable_balance(self, graph, partition):
        assert partition(graph, 4).vertex_balance() <= 1.25


class TestChunk:
    def test_contiguous_ranges(self, graph):
        p = chunk_partition(graph, 4)
        assert (np.diff(p.assignment) >= 0).all()

    def test_balance_modes(self, graph):
        # Gemini's load balances vertices and in-edges together.
        p = chunk_partition(graph, 4)
        assert p.vertex_balance() <= 2.0

    def test_edge_mode_balances_in_edges(self):
        g = references.star(99, inward=True)  # vertex 0 has all in-edges
        p = chunk_partition(g, 4)
        # The hub's chunk should be tiny, the rest split the leaves.
        assert len(p.part(0)) < 30

    def test_tiny_graph_every_part_nonempty(self):
        g = generators.ring(4)
        p = chunk_partition(g, 4)
        assert all(len(part) == 1 for part in p.parts())


class TestHash:
    def test_round_robin(self, graph):
        p = hash_partition(graph, 4)
        assert (p.assignment == np.arange(graph.num_vertices) % 4).all()


class TestFennel:
    def test_respects_capacity(self, graph):
        p = fennel_partition(graph, 4)
        sizes = np.bincount(p.assignment, minlength=4)
        assert sizes.max() <= int(np.ceil(1.1 * graph.num_vertices / 4))

    def test_beats_hash_on_cut(self, graph):
        fennel_cut = fennel_partition(graph, 4).edge_cut_fraction(graph)
        hash_cut = hash_partition(graph, 4).edge_cut_fraction(graph)
        assert fennel_cut < hash_cut


class TestMetisLike:
    def test_beats_hash_on_cut(self, graph):
        metis_cut = metis_like_partition(graph, 4).edge_cut_fraction(graph)
        hash_cut = hash_partition(graph, 4).edge_cut_fraction(graph)
        assert metis_cut < hash_cut

    def test_finds_planted_communities(self):
        g = generators.community(80, 4, 6.0, seed=1)
        p = metis_like_partition(g, 4, seed=1)
        # Cut should be far below the ~0.75 interleaved-chunk level.
        assert p.edge_cut_fraction(g) < 0.45

    def test_handles_disconnected_graph(self):
        g = generators.chain(10)  # plus isolated vertices below
        import numpy as np
        from repro.graph.graph import Graph
        g2 = Graph(14, g.src, g.dst)  # vertices 10..13 isolated
        p = metis_like_partition(g2, 3)
        assert len(p.assignment) == 14
        assert (p.assignment >= 0).all()


class TestPartitioningApi:
    def test_owner(self, graph):
        p = chunk_partition(graph, 4)
        for w in range(4):
            for v in p.part(w)[:3]:
                assert p.owner(int(v)) == w

    def test_summary_keys(self, graph):
        s = chunk_partition(graph, 4).summary(graph)
        assert {"method", "edge_cut_fraction", "vertex_balance"} <= set(s)

    def test_invalid_assignment_raises(self):
        with pytest.raises(ValueError):
            Partitioning(np.array([0, 5]), num_parts=2)

    def test_get_partitioner(self):
        assert get_partitioner("METIS") is metis_like_partition
        with pytest.raises(KeyError):
            get_partitioner("zoltan")


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 6), st.integers(10, 60), st.integers(0, 100))
def test_property_all_partitioners_valid(m, n, seed):
    g = generators.erdos_renyi(n, n * 3, seed=seed)
    for partition in ALL:
        p = partition(g, m)
        assert len(p.assignment) == n
        assert p.assignment.min() >= 0 and p.assignment.max() < m
        assert all(len(part) > 0 for part in p.parts())
