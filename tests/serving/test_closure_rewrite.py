"""Fences around the serving closure rewrite.

Three things were replaced, each by something that must be *equal*,
not close:

- ``khop_closure`` dedupes the frontier's unseen sources instead of
  scanning vertex-space masks.  ``mask_khop_closure`` below is the
  mask implementation exactly as it stood before, kept once as the
  reference (the ``tests/costmodel/seed_greedy.py`` pattern).
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
from repro.graph.khop import khop_closure
from repro.partition.chunk import chunk_partition
from repro.serving.planner import RequestPlanner

BLOCK_FIELDS = (
    "input_vertices", "edge_src_pos", "edge_dst_pos", "edge_weight",
    "compute_pos_in_inputs", "edge_ids", "edge_features",
    "compute_vertices", "edge_src_global",
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


def _assert_same_closure(got, expected):
    for got_layers, expected_layers in zip(got, expected):
        assert len(got_layers) == len(expected_layers)
        for a, b in zip(got_layers, expected_layers):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)


@st.composite
def graphs(draw):
    """Random COO graphs: zero-edge, isolated vertices, self loops and
    parallel edges included; sparse enough for the sort path on single
    seeds and dense enough for the mask path on partitions."""
    num_vertices = draw(st.integers(1, 120))
    num_edges = draw(st.integers(0, 4 * num_vertices))
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    # Edges only among a prefix, so the rest stay isolated.
    active = draw(st.integers(1, num_vertices))
    src = rng.integers(0, active, size=num_edges)
    dst = rng.integers(0, active, size=num_edges)
    loops = rng.random(num_edges) < 0.1
    dst[loops] = src[loops]
    graph = Graph(
        num_vertices, src, dst,
        features=rng.standard_normal((num_vertices, 5)).astype(np.float32),
        edge_weight=rng.random(num_edges).astype(np.float32),
        edge_features=(
            rng.standard_normal((num_edges, 3)).astype(np.float32)
            if draw(st.booleans()) else None
        ),
    )
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


def _planner(graph, hops, mode="auto"):
    workers = min(4, graph.num_vertices)
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

    @pytest.mark.parametrize("avg_degree, expect_sorted_hop", [(2, True), (80, False)])
    def test_both_hop_forms_run(self, avg_degree, expect_sorted_hop):
        # 400 vertices: a degree-2 seed reaches < V/8 sources per hop
        # (sort + merge); a degree-80 one does not (mask scan).
        rng = np.random.default_rng(avg_degree)
        n = 400
        graph = Graph(
            n, rng.integers(0, n, avg_degree * n), rng.integers(0, n, avg_degree * n)
        )
        _, sources, _ = graph.csc.select(np.array([7]))
        assert (8 * len(sources) < n) == expect_sorted_hop
        _assert_same_closure(
            khop_closure(graph, [7], 2), mask_khop_closure(graph, [7], 2)
        )


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

        calls = []
        real = planner_module.khop_closure
        monkeypatch.setattr(
            planner_module, "khop_closure",
            lambda *a: calls.append(1) or real(*a),
        )
        planner = _planner(small_graph, 2)
        planner.plan_batch([3, 5, 8])
        planner.plan_batch([5, 8, 13])
        planner.plan_batch([3])
        assert len(calls) == 4  # vertices 3, 5, 8, 13: once each

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
                graph, compute, vertex_layers[hops - l + 1], l,
                graph.csc.select(compute),
            )
            expected = build_block(graph, compute, l)
            assert got.layer_index == expected.layer_index
            for name in BLOCK_FIELDS:
                a, b = getattr(got, name), getattr(expected, name)
                if b is None:
                    assert a is None, name
                    continue
                assert a.dtype == b.dtype, name
                assert np.array_equal(a, b), name
