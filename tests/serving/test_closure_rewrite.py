"""Fences around the serving closure rewrite.

Four things were replaced, each by something that must be *equal*,
not close:

- ``khop_closure`` must equal ``mask_khop_closure`` below, the
  vertex-space mask walk kept once as the reference (the
  ``tests/costmodel/seed_greedy.py`` pattern), and the per-seed
  ``khop_closures`` must equal ``khop_closure`` seed by seed.
- ``RequestPlanner.profiles`` walks and prices many vertices in one
  vectorised pass: each profile must equal ``reference_profile`` below,
  the one-vertex walk and pricing loop it replaced, prices compared by
  ``float.hex()``.
- ``RequestPlanner.plan_batch`` merges memoized per-vertex closures
  instead of walking the union: it must equal ``khop_closure`` on the
  union, array for array.
- ``closure_block`` reads a block off two consecutive closure layers
  instead of calling ``build_block``: every field must match.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core.blocks import build_block, closure_block
from repro.core.model import GNNModel
from repro.costmodel.probe import probe_constants
from repro.graph.graph import Graph
from repro.graph.khop import khop_closure, khop_closures
from repro.partition.chunk import chunk_partition
from repro.serving.planner import RequestPlanner
from repro.utils.ranges import sorted_unique

BLOCK_FIELDS = (
    "input_vertices", "edge_src_pos", "edge_dst_pos", "edge_weight",
    "compute_pos_in_inputs", "edge_ids", "compute_vertices",
    "edge_src_global",
)


def mask_khop_closure(graph, seeds, hops):
    """The pre-rewrite ``khop_closure``: boolean masks over the vertex space."""
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    vertex_layers = [seeds]
    edge_layers = []
    csc = graph.csc
    seen = np.zeros(graph.num_vertices, dtype=bool)
    seen[seeds] = True
    frontier = seeds
    edges_so_far = np.empty(0, dtype=np.int64)
    for _ in range(hops):
        _, sources, eids = csc.select(frontier)
        edges_so_far = np.sort(np.concatenate([edges_so_far, eids]))
        edge_layers.append(edges_so_far)
        new_mask = np.zeros(graph.num_vertices, dtype=bool)
        new_mask[sources] = True
        new_mask &= ~seen
        frontier = np.flatnonzero(new_mask)
        seen |= new_mask
        vertex_layers.append(np.flatnonzero(seen))
    return vertex_layers, edge_layers


def reference_profile(planner, vertex):
    """``RequestPlanner.profile`` before the vectorised pass: one BFS and
    one pricing loop per vertex.  Returns the closure and the prices."""
    L = planner.num_layers
    vertex_layers, edge_layers = khop_closure(planner.graph, [vertex], L)
    parts = planner.partitioning.num_parts
    assignment = planner.partitioning.assignment
    local = 0.0
    for l in range(1, L + 1):
        local += planner.constants.vertex_cost(l) * len(vertex_layers[L - l])
        local += planner.constants.edge_cost(l) * len(edge_layers[L - l])
    remote = 0.0
    cross_total = 0
    for l in range(1, L + 1):
        compute = vertex_layers[L - l]
        edges = edge_layers[L - l]
        shares = np.bincount(assignment[compute], minlength=parts)
        remote += planner.constants.vertex_cost(l) * int(shares.max())
        src = planner.graph.src[edges]
        dst_owner = assignment[planner.graph.dst[edges]]
        edge_shares = np.bincount(dst_owner, minlength=parts)
        remote += planner.constants.edge_cost(l) * int(edge_shares.max())
        crossing = assignment[src] != dst_owner
        cross = len(sorted_unique(src[crossing] * np.int64(parts) + dst_owner[crossing]))
        cross_total += cross
        remote += planner.constants.comm_cost(l) * cross
        remote += 2.0 * planner.network.latency_s
    return (vertex_layers, edge_layers), local, remote, cross_total


def _assert_same_closure(got, expected):
    for got_layers, expected_layers in zip(got, expected):
        assert len(got_layers) == len(expected_layers)
        for a, b in zip(got_layers, expected_layers):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)


@st.composite
def graphs(draw):
    """Random COO graphs: zero-edge, isolated vertices, self loops and
    parallel edges included, from sparse to dense."""
    num_vertices = draw(st.integers(1, 120))
    num_edges = draw(st.integers(0, 4 * num_vertices))
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    # Edges only among a prefix, so the rest stay isolated.
    active = draw(st.integers(1, num_vertices))
    src = rng.integers(0, active, size=num_edges)
    dst = rng.integers(0, active, size=num_edges)
    loops = rng.random(num_edges) < 0.1
    dst[loops] = src[loops]
    features = rng.standard_normal((num_vertices, 5)).astype(np.float32)
    graph = Graph(
        num_vertices, src, dst,
        edge_weight=rng.random(num_edges).astype(np.float32),
    )
    graph.features = features
    return graph, rng


@st.composite
def batches(draw):
    graph, rng = draw(graphs())
    hops = draw(st.integers(1, 3))
    num_seeds = draw(st.integers(1, 8))
    seeds = rng.integers(0, graph.num_vertices, size=num_seeds)
    if draw(st.booleans()):  # a duplicate request in the batch
        seeds = np.append(seeds, seeds[0])
    return graph, hops, [int(v) for v in seeds]


@st.composite
def hub_graphs(draw):
    """:func:`graphs` plus one hub: a vertex with in- and out-edges to
    a third of the others, duplicates included."""
    graph, rng = draw(graphs())
    n = graph.num_vertices
    hub = draw(st.integers(0, n - 1))
    spokes = rng.integers(0, n, size=max(1, n // 3))
    src = np.concatenate([graph.src, spokes, np.full(len(spokes), hub)])
    dst = np.concatenate([graph.dst, np.full(len(spokes), hub), spokes])
    hub_graph = Graph(
        n, src, dst, edge_weight=rng.random(len(src)).astype(np.float32),
    )
    hub_graph.features = graph.features
    return hub_graph, rng


def _planner(graph, hops, mode="auto", parts=4):
    workers = min(parts, graph.num_vertices)
    cluster = ClusterSpec.ecs(workers)
    model = GNNModel.build("gcn", graph.feature_dim, 6, 3, num_layers=hops, seed=1)
    return RequestPlanner(
        graph, chunk_partition(graph, workers), probe_constants(cluster, model),
        hops, cluster.network, mode=mode,
    )


class TestKhopAgainstMaskReference:
    @settings(max_examples=150, deadline=None)
    @given(case=batches())
    def test_seed_sets(self, case):
        graph, hops, seeds = case
        for query in ([seeds[0]], seeds):
            _assert_same_closure(
                khop_closure(graph, query, hops),
                mask_khop_closure(graph, query, hops),
            )

    @settings(max_examples=60, deadline=None)
    @given(case=graphs(), hops=st.integers(0, 3), parts=st.integers(1, 4))
    def test_whole_partitions(self, case, hops, parts):
        graph, _ = case
        for part in np.array_split(np.arange(graph.num_vertices), parts):
            _assert_same_closure(
                khop_closure(graph, part, hops),
                mask_khop_closure(graph, part, hops),
            )

    @settings(max_examples=100, deadline=None)
    @given(case=hub_graphs(), hops=st.integers(0, 3), data=st.data())
    def test_per_seed_walk(self, case, hops, data):
        graph, rng = case
        seeds = rng.integers(0, graph.num_vertices, size=data.draw(st.integers(0, 12)))
        closures = khop_closures(graph, seeds, hops)
        assert np.array_equal(closures.seeds, np.unique(seeds))
        for seed, (vertex_layers, edge_layers) in zip(closures.seeds, closures.layers()):
            expected = khop_closure(graph, [seed], hops)
            _assert_same_closure((vertex_layers, edge_layers), expected)
            assert len(vertex_layers) == hops + 1 and len(edge_layers) == hops
            for layer in vertex_layers + edge_layers:
                assert not layer.flags.writeable


class TestPlannerClosure:
    @settings(max_examples=100, deadline=None)
    @given(case=batches(), mode=st.sampled_from(["auto", "local", "remote"]))
    def test_merged_closure_equals_union_bfs(self, case, mode):
        graph, hops, seeds = case
        planner = _planner(graph, hops, mode)
        distinct = list(dict.fromkeys(seeds))  # the server's dedupe
        plan = planner.plan_batch(distinct)
        _assert_same_closure(
            (plan.vertex_layers, plan.edge_layers),
            khop_closure(graph, np.array(distinct, dtype=np.int64), hops),
        )
        assert plan.mode == planner.choose_batch(distinct)
        if mode != "auto":
            assert plan.mode == mode

    def test_one_bfs_per_distinct_vertex(self, small_graph, monkeypatch):
        from repro.serving import planner as planner_module

        walked = []
        real = planner_module.khop_closures
        monkeypatch.setattr(
            planner_module, "khop_closures",
            lambda graph, seeds, hops: walked.extend(seeds) or real(graph, seeds, hops),
        )
        planner = _planner(small_graph, 2)
        planner.plan_batch([3, 5, 8])
        planner.plan_batch([5, 8, 13])
        planner.plan_batch([3])
        planner.profiles([13, 21, 3, 21])
        assert sorted(walked) == [3, 5, 8, 13, 21]  # once each

    @settings(max_examples=100, deadline=None)
    @given(
        case=hub_graphs(), hops=st.integers(1, 3), parts=st.integers(1, 8),
        data=st.data(),
    )
    def test_profiles_equal_the_per_vertex_reference(self, case, hops, parts, data):
        graph, rng = case
        planner = _planner(graph, hops, parts=parts)
        vertices = st.lists(st.integers(0, graph.num_vertices - 1), max_size=10)
        # Unsorted, with duplicates, and a second call repeating the first.
        for query in (data.draw(vertices), data.draw(vertices)):
            for vertex, profile in zip(query, planner.profiles(query)):
                closure, local, remote, cross = reference_profile(planner, vertex)
                assert profile.vertex == vertex
                assert profile.owner == planner.partitioning.owner(vertex)
                _assert_same_closure(
                    (profile.vertex_layers, profile.edge_layers), closure
                )
                assert profile.local_cost_s.hex() == float(local).hex()
                assert profile.remote_cost_s.hex() == float(remote).hex()
                assert profile.cross_inputs == cross
                assert profile is planner.profile(vertex)

    @pytest.mark.parametrize("mode", ["auto", "local", "remote"])
    def test_empty_batch_plans_to_empty_layers(self, small_graph, mode):
        planner = _planner(small_graph, 2, mode)
        plan = planner.plan_batch([])
        _assert_same_closure(
            (plan.vertex_layers, plan.edge_layers),
            khop_closure(small_graph, np.empty(0, dtype=np.int64), 2),
        )
        assert planner.choose_batch([]) == ("local" if mode == "auto" else mode)

    def test_planned_layers_cannot_corrupt_the_memo(self, small_graph):
        # A one-vertex plan is the memoized arrays themselves.
        planner = _planner(small_graph, 2)
        for batch in ([3], [3, 5]):
            plan = planner.plan_batch(batch)
            for layer in list(plan.vertex_layers) + list(plan.edge_layers):
                with pytest.raises(ValueError, match="read-only"):
                    layer[:1] = 0


class TestClosureBlocks:
    @settings(max_examples=100, deadline=None)
    @given(case=batches())
    def test_equal_build_block_field_for_field(self, case):
        graph, hops, seeds = case
        vertex_layers, _ = khop_closure(graph, seeds, hops)
        for l in range(1, hops + 1):
            compute = vertex_layers[hops - l]
            got = closure_block(
                graph, compute, vertex_layers[hops - l + 1],
                graph.csc.select(compute),
            )
            expected = build_block(graph, compute)
            for name in BLOCK_FIELDS:
                a, b = getattr(got, name), getattr(expected, name)
                if b is None:
                    assert a is None, name
                    continue
                assert a.dtype == b.dtype, name
                assert np.array_equal(a, b), name
