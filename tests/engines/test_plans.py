"""Engine plans: compute sets, comm sets, and their invariants."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.blocks import build_block
from repro.core.model import GNNModel
from repro.engines import DepCacheEngine, DepCommEngine, HybridEngine
from repro.graph.khop import dependency_layers, khop_closure
from repro.training.prep import prepare_graph


@pytest.fixture
def prepared(medium_graph):
    return prepare_graph(medium_graph, "gcn")


BLOCK_FIELDS = (
    "compute_vertices", "input_vertices", "edge_src_pos", "edge_dst_pos",
    "edge_weight", "compute_pos_in_inputs", "edge_src_global", "edge_ids",
)


def build(engine_cls, graph, m=4, **kwargs):
    model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=3)
    return engine_cls(graph, model, ClusterSpec.ecs(m), **kwargs)


class TestDepCachePlan:
    def test_no_communication(self, prepared):
        engine = build(DepCacheEngine, prepared)
        plan = engine.plan()
        assert sum(ex.total_vertices for ex in plan.exchanges) == 0
        assert all(
            len(c) == 0 for per_l in plan.comm_ids for c in per_l
        )
        assert plan.cache_ratio() == 1.0

    def test_compute_sets_are_khop_closure(self, prepared):
        engine = build(DepCacheEngine, prepared)
        plan = engine.plan()
        for w in range(4):
            owned = engine.partitioning.part(w)
            layers, _ = khop_closure(prepared, owned, 1)
            # Layer-1 compute set = 1-hop in-closure of owned vertices.
            assert np.array_equal(plan.blocks[0][w].compute_vertices, layers[1])
            assert np.array_equal(plan.blocks[1][w].compute_vertices, owned)

    def test_epoch_has_zero_comm_bytes(self, prepared):
        engine = build(DepCacheEngine, prepared)
        report = engine.run_epoch()
        assert report.comm_bytes == 0


class TestDepCommPlan:
    def test_compute_only_owned(self, prepared):
        engine = build(DepCommEngine, prepared)
        plan = engine.plan()
        for l in range(2):
            for w in range(4):
                assert np.array_equal(
                    plan.blocks[l][w].compute_vertices, engine.partitioning.part(w)
                )

    def test_comm_ids_are_remote_deps(self, prepared):
        engine = build(DepCommEngine, prepared)
        plan = engine.plan()
        for w in range(4):
            deps = dependency_layers(prepared, engine.partitioning.part(w), 2)
            for l in range(2):
                assert np.array_equal(plan.comm_ids[l][w], deps[l])

    def test_comm_bytes_positive(self, prepared):
        engine = build(DepCommEngine, prepared)
        assert engine.run_epoch().comm_bytes > 0


class TestHybridPlan:
    def test_ratio_between_extremes(self, prepared):
        engine = build(HybridEngine, prepared)
        plan = engine.plan()
        assert 0.0 <= plan.cache_ratio() <= 1.0

    def test_forced_fraction_controls_ratio(self, prepared):
        low = build(HybridEngine, prepared, force_cache_fraction=0.1).plan()
        high = build(HybridEngine, prepared, force_cache_fraction=0.9).plan()
        assert low.cache_ratio() < high.cache_ratio()

    def test_cached_dep_in_compute_set(self, prepared):
        engine = build(HybridEngine, prepared, force_cache_fraction=0.5)
        plan = engine.plan()
        for w in range(4):
            cached_l2 = plan.cached_deps[1][w]
            assert np.isin(cached_l2, plan.blocks[0][w].compute_vertices).all()

    def test_comm_plus_cached_covers_remote_inputs(self, prepared):
        engine = build(HybridEngine, prepared)
        plan = engine.plan()
        for w in range(4):
            block = plan.blocks[1][w]
            remote = block.input_vertices[
                engine.assignment[block.input_vertices] != w
            ]
            available = np.union1d(
                plan.comm_ids[1][w], plan.blocks[0][w].compute_vertices
            )
            assert np.isin(remote, available).all()

    def test_preprocessing_time_recorded(self, prepared):
        engine = build(HybridEngine, prepared)
        assert engine.plan().preprocessing_s > 0

    def test_invalid_force_fraction(self, prepared):
        with pytest.raises(ValueError):
            build(HybridEngine, prepared, force_cache_fraction=1.5)

    def test_negative_memory_budget_rejected(self, prepared):
        with pytest.raises(ValueError, match=r"memory_limit_bytes .*-1"):
            build(HybridEngine, prepared, memory_limit_bytes=-1)

    def test_zero_memory_budget_plans_and_caches_nothing(self, prepared):
        plan = build(HybridEngine, prepared, memory_limit_bytes=0).plan()
        assert plan.cache_ratio() == 0.0
        assert sum(len(c) for per_l in plan.comm_ids for c in per_l) > 0


class TestPlanGeneralInvariants:
    @pytest.mark.parametrize("engine_cls", [DepCacheEngine, DepCommEngine, HybridEngine])
    def test_owned_always_computed(self, prepared, engine_cls):
        engine = build(engine_cls, prepared)
        plan = engine.plan()
        for l in range(2):
            for w in range(4):
                owned = engine.partitioning.part(w)
                assert np.isin(owned, plan.blocks[l][w].compute_vertices).all()

    @pytest.mark.parametrize("engine_cls", [DepCacheEngine, DepCommEngine, HybridEngine])
    def test_equal_compute_sets_share_one_block(self, prepared, engine_cls):
        # A block is a function of its compute set: layers that compute
        # the same vertices hold one object, equal to a fresh build.
        plan = build(engine_cls, prepared).plan()
        shared = 0
        for w in range(4):
            lower, upper = plan.blocks[0][w], plan.blocks[1][w]
            same = np.array_equal(lower.compute_vertices, upper.compute_vertices)
            assert (lower is upper) == same
            if not same:
                continue
            shared += 1
            prepared.__dict__.pop("_block_cache", None)
            fresh = build_block(prepared, upper.compute_vertices)
            assert fresh is not upper
            for name in BLOCK_FIELDS:
                a, b = getattr(fresh, name), getattr(upper, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert fresh.edge_weight_rescaled == upper.edge_weight_rescaled
        if engine_cls is DepCommEngine:
            assert shared == 4

    @pytest.mark.parametrize("engine_cls", [DepCacheEngine, DepCommEngine, HybridEngine])
    def test_plan_idempotent(self, prepared, engine_cls):
        engine = build(engine_cls, prepared)
        assert engine.plan() is engine.plan()

    def test_rejects_feature_dim_mismatch(self, prepared):
        model = GNNModel.gcn(prepared.feature_dim + 1, 8, prepared.num_classes)
        with pytest.raises(ValueError, match="in_dim"):
            DepCommEngine(prepared, model, ClusterSpec.ecs(2))

    def test_rejects_partitioning_mismatch(self, prepared):
        from repro.partition.chunk import chunk_partition
        model = GNNModel.gcn(prepared.feature_dim, 8, prepared.num_classes)
        with pytest.raises(ValueError, match="partitioning"):
            DepCommEngine(
                prepared, model, ClusterSpec.ecs(2),
                partitioning=chunk_partition(prepared, 3),
            )

    def test_rejects_graph_without_features(self, prepared):
        from repro.graph.graph import Graph
        bare = Graph(4, np.array([0]), np.array([1]))
        model = GNNModel.gcn(8, 8, 2)
        with pytest.raises(ValueError, match="features"):
            DepCommEngine(bare, model, ClusterSpec.ecs(2))
