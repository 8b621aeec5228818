"""Adjacency index structure: grouping, selection, properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.adjacency import Adjacency
from repro.utils.ranges import stable_argsort


class TestBasics:
    def test_degree_and_neighbors(self):
        key = np.array([0, 0, 2, 1])
        other = np.array([5, 6, 7, 8])
        adj = Adjacency(key, other, 3)
        assert adj.degree(0) == 2
        assert adj.degree(1) == 1
        assert sorted(adj.neighbors(0).tolist()) == [5, 6]
        assert adj.num_edges == 4

    def test_empty_vertex(self):
        adj = Adjacency(np.array([0]), np.array([1]), 4)
        assert adj.degree(3) == 0
        assert len(adj.neighbors(3)) == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Adjacency(np.array([0]), np.array([1, 2]), 3)

    def test_select_concatenates(self):
        key = np.array([0, 1, 0, 2])
        other = np.array([4, 5, 6, 7])
        adj = Adjacency(key, other, 3)
        keys, others, eids = adj.select(np.array([0, 2]))
        assert sorted(others.tolist()) == [4, 6, 7]
        assert len(eids) == 3

    def test_select_empty(self):
        adj = Adjacency(np.array([0]), np.array([1]), 2)
        keys, others, eids = adj.select(np.array([], dtype=np.int64))
        assert len(keys) == len(others) == len(eids) == 0

    def test_neighbors_of_set_unique(self):
        key = np.array([0, 1])
        other = np.array([5, 5])
        adj = Adjacency(key, other, 2)
        assert adj.neighbors_of_set(np.array([0, 1])).tolist() == [5]

    def test_degrees_vector(self):
        adj = Adjacency(np.array([0, 0, 1]), np.array([1, 2, 0]), 3)
        assert adj.degrees().tolist() == [2, 1, 0]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_every_edge_appears_exactly_once(data):
    n = data.draw(st.integers(2, 12))
    m = data.draw(st.integers(0, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
    key = rng.integers(0, n, size=m)
    other = rng.integers(0, n, size=m)
    adj = Adjacency(key, other, n)
    # indptr consistency.
    assert adj.indptr[0] == 0 and adj.indptr[-1] == m
    assert (np.diff(adj.indptr) >= 0).all()
    # Every original edge id shows up exactly once.
    assert sorted(adj.edge_ids.tolist()) == list(range(m))
    # Grouped keys are sorted and edges preserved as pairs.
    assert (np.diff(adj.key) >= 0).all()
    original = sorted(zip(key.tolist(), other.tolist()))
    grouped = sorted(zip(adj.key.tolist(), adj.other.tolist()))
    assert original == grouped


def _reference(key, other, num_vertices):
    """``Adjacency``'s fields from the int64 stable argsort it used to
    call, kept as the reference for ``stable_argsort``'s radix paths."""
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=num_vertices)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return order, key[order], other[order], indptr


class TestMatchesStableArgsort:
    @pytest.mark.parametrize("num_vertices", [
        1, 300, 1 << 16,                    # one uint16 radix pass
        (1 << 16) + 1, 300_000, 1 << 21,    # two 16-bit passes
    ])
    @pytest.mark.parametrize("num_edges", [0, 1, 5000])
    def test_fields_are_array_equal(self, num_vertices, num_edges):
        rng = np.random.default_rng(num_vertices + num_edges)
        # Heavy duplication exercises stability; the top id exercises
        # the widest key of the range.
        key = rng.integers(0, num_vertices, size=num_edges)
        key[: num_edges // 2] = rng.integers(0, 4, size=num_edges // 2) * (
            num_vertices // 4)
        if num_edges:
            key[-1] = num_vertices - 1
        other = rng.integers(0, num_vertices, size=num_edges)
        adj = Adjacency(key, other, num_vertices)
        order, key_sorted, other_sorted, indptr = _reference(
            key, other, num_vertices)
        assert adj.edge_ids.dtype == np.int64
        for got, want in [(adj.edge_ids, order), (adj.key, key_sorted),
                          (adj.other, other_sorted), (adj.indptr, indptr)]:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("bound", [
        1, 1 << 16, (1 << 16) + 1, 1 << 32, (1 << 32) + 1, 1 << 40,
    ])
    def test_sort_helper_at_every_width(self, bound):
        # Above 2**32 an Adjacency's indptr alone would need 32 GB, so
        # the int64 path is checked on the sort helper itself.
        rng = np.random.default_rng(bound % 1000)
        keys = rng.integers(0, bound, size=4000)
        keys[:2000] = rng.integers(0, bound, size=8)[rng.integers(0, 8, 2000)]
        keys[-1] = bound - 1
        assert np.array_equal(
            stable_argsort(keys, bound), np.argsort(keys, kind="stable")
        )
