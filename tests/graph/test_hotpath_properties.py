"""Property tests pinning the vectorized sparse hot path to references.

The CSR/CSC primitives (`Adjacency.select`, `neighbors_of_set`) and the
mask-frontier BFS (`khop_closure`, `limited_bfs_in`) were rewritten from
per-vertex Python loops / ``union1d`` chains into flat offset-arithmetic
gathers and boolean-mask frontiers.  These Hypothesis tests keep the
loop-based references alive *in the test module* and assert the
vectorized results are **element-identical** (same values, same order,
same dtype behavior) on random COO graphs -- the contract the fused
executor, samplers, and block builder all rely on.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.adjacency import Adjacency
from repro.graph.graph import Graph
from repro.graph.khop import khop_closure, limited_bfs_in


def _select_reference(adj, vertices):
    """The pre-vectorization select: one indptr slice per vertex, with
    every grouped edge's key vertex read off ``indptr``."""
    grouped_key = np.repeat(np.arange(adj.num_vertices), np.diff(adj.indptr))
    keys, others, eids = [], [], []
    for v in vertices:
        lo, hi = int(adj.indptr[v]), int(adj.indptr[v + 1])
        keys.append(grouped_key[lo:hi])
        others.append(adj.other[lo:hi])
        eids.append(adj.edge_ids[lo:hi])
    empty = np.empty(0, dtype=np.int64)
    return (
        np.concatenate(keys) if keys else empty,
        np.concatenate(others) if others else empty.copy(),
        np.concatenate(eids) if eids else empty.copy(),
    )


def _khop_reference(graph, seeds, hops):
    """The pre-vectorization closure: cumulative ``union1d`` chains."""
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    vertex_layers = [seeds]
    edge_layers = []
    current = seeds
    for _ in range(hops):
        _, sources, eids = graph.csc.select(current)
        edge_layers.append(np.sort(eids))
        current = np.union1d(current, sources)
        vertex_layers.append(current)
    return vertex_layers, edge_layers


def _random_graph(data, max_n=16, max_m=60):
    n = data.draw(st.integers(2, max_n))
    m = data.draw(st.integers(0, max_m))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return n, src.astype(np.int64), dst.astype(np.int64), rng


def _vertex_set(data, rng, n):
    k = data.draw(st.integers(0, n))
    # Drawn WITH possible duplicates and in arbitrary order: select's
    # contract is per-input-vertex concatenation, not set semantics.
    return rng.integers(0, n, size=k).astype(np.int64)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_select_matches_loop_reference(data):
    n, src, dst, rng = _random_graph(data)
    adj = Adjacency(src, dst, n)
    vertices = _vertex_set(data, rng, n)
    counts, others, eids = adj.select(vertices)
    want = _select_reference(adj, vertices)
    got = (np.repeat(vertices, counts), others, eids)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_select_runs_cover_isolated_repeated_and_empty_queries(data):
    # Vertex n has no edges at all; the query repeats a vertex and
    # always holds the isolated one, or is empty.
    n, src, dst, rng = _random_graph(data)
    adj = Adjacency(src, dst, n + 1)
    vertices = _vertex_set(data, rng, n)
    if data.draw(st.booleans()):
        vertices = np.empty(0, dtype=np.int64)
    elif len(vertices):
        vertices = np.concatenate([vertices, [n], vertices[:1]])
    counts, others, eids = adj.select(vertices)
    assert counts.dtype == np.int64 and len(counts) == len(vertices)
    assert np.array_equal(counts, np.diff(adj.indptr)[vertices])
    keys, want_others, want_eids = _select_reference(adj, vertices)
    assert np.array_equal(np.repeat(vertices, counts), keys)
    assert np.array_equal(others, want_others)
    assert np.array_equal(eids, want_eids)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_neighbors_of_set_matches_unique_reference(data):
    n, src, dst, rng = _random_graph(data)
    adj = Adjacency(src, dst, n)
    vertices = _vertex_set(data, rng, n)
    got = adj.neighbors_of_set(vertices)
    want = np.unique(
        np.concatenate([adj.neighbors(int(v)) for v in vertices])
        if len(vertices)
        else np.empty(0, dtype=np.int64)
    )
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_khop_closure_matches_union1d_reference(data):
    n, src, dst, rng = _random_graph(data)
    graph = Graph(num_vertices=n, src=src, dst=dst)
    k = data.draw(st.integers(1, max(1, n // 2)))
    seeds = rng.choice(n, size=k, replace=False).astype(np.int64)
    hops = data.draw(st.integers(0, 4))
    got_v, got_e = khop_closure(graph, seeds, hops)
    want_v, want_e = _khop_reference(graph, seeds, hops)
    assert len(got_v) == len(want_v) and len(got_e) == len(want_e)
    for g, w in zip(got_v, want_v):
        assert np.array_equal(g, w)
    for g, w in zip(got_e, want_e):
        assert np.array_equal(np.sort(g), np.sort(w))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_limited_bfs_frontiers_partition_reachable_set(data):
    n, src, dst, rng = _random_graph(data)
    graph = Graph(num_vertices=n, src=src, dst=dst)
    roots = rng.choice(n, size=data.draw(st.integers(1, n)),
                       replace=False).astype(np.int64)
    depth = data.draw(st.integers(0, 4))
    vertex_steps, edge_steps = limited_bfs_in(graph, roots, depth)
    assert len(edge_steps) == min(depth, len(edge_steps))
    # Frontiers are disjoint, sorted, and their union is the closure.
    seen = set()
    for step in vertex_steps:
        assert np.array_equal(step, np.sort(np.unique(step)))
        assert not seen.intersection(step.tolist())
        seen.update(step.tolist())
    closure, _ = khop_closure(graph, roots, depth)
    assert seen == set(closure[-1].tolist())
