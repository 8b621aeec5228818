"""The timing model: optimizations, scaling, and shape assertions.

These tests pin the paper's qualitative performance claims at test
granularity; the benchmarks regenerate the full tables.
"""

import pytest

from repro.cluster.spec import ClusterSpec
from repro.comm.scheduler import CommOptions
from repro.core.model import GNNModel
from repro.engines import DepCacheEngine, DepCommEngine, HybridEngine, RocLikeEngine
from repro.graph.datasets import load_dataset, spec_of
from repro.training.prep import prepare_graph


def charge(engine_cls, name, m=8, comm=CommOptions.none(), scale=1.0, **kwargs):
    graph = prepare_graph(load_dataset(name, scale=scale), "gcn")
    spec = spec_of(name)
    model = GNNModel.gcn(
        graph.feature_dim, spec.hidden_dim, graph.num_classes, seed=1
    )
    engine = engine_cls(graph, model, ClusterSpec.ecs(m), comm=comm, **kwargs)
    return engine.charge_epoch()


class TestChargeEpoch:
    def test_positive_and_deterministic(self, medium_graph, cluster4):
        graph = prepare_graph(medium_graph, "gcn")
        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=1)
        engine = DepCommEngine(graph, model, cluster4)
        t1 = engine.charge_epoch()
        t2 = engine.charge_epoch()
        assert t1 > 0
        assert t2 == pytest.approx(t1, rel=1e-9)

    def test_matches_run_epoch_time(self, small_graph, cluster4):
        graph = prepare_graph(small_graph, "gcn")
        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=1)
        engine = DepCommEngine(graph, model, cluster4)
        fast = engine.charge_epoch()
        real = engine.run_epoch().epoch_time_s
        assert real == pytest.approx(fast, rel=1e-6)


class TestOptimizations:
    def test_each_optimization_helps(self):
        raw = charge(HybridEngine, "orkut", m=8, comm=CommOptions.none())
        ring = charge(HybridEngine, "orkut", m=8, comm=CommOptions(ring=True))
        ring_lf = charge(
            HybridEngine, "orkut", m=8, comm=CommOptions(ring=True, lock_free=True)
        )
        full = charge(HybridEngine, "orkut", m=8, comm=CommOptions.all())
        assert raw > ring > ring_lf > full

    def test_full_optimization_band(self):
        # Paper: all three together buy 1.46X-1.77X over raw Hybrid.
        raw = charge(HybridEngine, "wiki", m=16, comm=CommOptions.none())
        full = charge(HybridEngine, "wiki", m=16, comm=CommOptions.all())
        assert 1.1 < raw / full < 2.2


class TestFig2Shapes:
    def test_depcache_wins_on_google(self):
        cache = charge(DepCacheEngine, "google")
        comm = charge(DepCommEngine, "google")
        assert cache < comm

    def test_depcomm_wins_on_pokec(self):
        cache = charge(DepCacheEngine, "pokec")
        comm = charge(DepCommEngine, "pokec")
        assert comm < cache

    def test_depcomm_wins_big_on_reddit(self):
        cache = charge(DepCacheEngine, "reddit")
        comm = charge(DepCommEngine, "reddit")
        assert cache / comm > 2.5

    def test_ibv_flips_google(self):
        graph = prepare_graph(load_dataset("google"), "gcn")
        spec = spec_of("google")
        times = {}
        for engine_cls in [DepCacheEngine, DepCommEngine]:
            model = GNNModel.gcn(
                graph.feature_dim, spec.hidden_dim, graph.num_classes, seed=1
            )
            engine = engine_cls(
                graph, model, ClusterSpec.ibv(8), comm=CommOptions.none()
            )
            times[engine_cls.name] = engine.charge_epoch()
        assert times["depcomm"] < times["depcache"]

    def test_wider_hidden_favours_depcache(self):
        graph = prepare_graph(load_dataset("google"), "gcn")

        def ratio(hidden):
            times = {}
            for engine_cls in [DepCacheEngine, DepCommEngine]:
                model = GNNModel.gcn(
                    graph.feature_dim, hidden, graph.num_classes, seed=1
                )
                engine = engine_cls(
                    graph, model, ClusterSpec.ecs(8), comm=CommOptions.none()
                )
                times[engine_cls.name] = engine.charge_epoch()
            return times["depcache"] / times["depcomm"]

        assert ratio(640) < ratio(64)


class TestHybridDominance:
    @pytest.mark.parametrize("name", ["google", "pokec", "reddit", "wiki"])
    def test_hybrid_close_to_or_better_than_best(self, name):
        cache = charge(DepCacheEngine, name, m=8)
        comm = charge(DepCommEngine, name, m=8)
        hybrid = charge(HybridEngine, name, m=8)
        assert hybrid <= min(cache, comm) * 1.1

    def test_hybrid_beats_both_on_mixed_graph(self):
        cache = charge(DepCacheEngine, "wiki", m=16)
        comm = charge(DepCommEngine, "wiki", m=16)
        hybrid = charge(HybridEngine, "wiki", m=16)
        assert hybrid < cache and hybrid < comm


class TestScaling:
    def test_hybrid_scales_down_with_workers(self):
        times = [
            charge(HybridEngine, "pokec", m=m, comm=CommOptions.all())
            for m in [2, 4, 8, 16]
        ]
        assert times[0] > times[1] > times[2] > times[3]

    def test_depcache_scales_poorly(self):
        # Redundant computation does not shrink with more nodes.
        cache4 = charge(DepCacheEngine, "orkut", m=4)
        cache16 = charge(DepCacheEngine, "orkut", m=16)
        hybrid4 = charge(HybridEngine, "orkut", m=4, comm=CommOptions.all())
        hybrid16 = charge(HybridEngine, "orkut", m=16, comm=CommOptions.all())
        assert (cache4 / cache16) < (hybrid4 / hybrid16)

    def test_roc_broadcast_volume_heavier(self):
        graph = prepare_graph(load_dataset("wiki"), "gcn")
        spec = spec_of("wiki")
        model = GNNModel.gcn(
            graph.feature_dim, spec.hidden_dim, graph.num_classes, seed=1
        )
        roc = RocLikeEngine(graph, model, ClusterSpec.ecs(8))
        model2 = GNNModel.gcn(
            graph.feature_dim, spec.hidden_dim, graph.num_classes, seed=1
        )
        comm = DepCommEngine(
            graph, model2, ClusterSpec.ecs(8), comm=CommOptions.none()
        )
        roc_plan, comm_plan = roc.plan(), comm.plan()
        assert (
            roc.accountant.forward_volumes(roc_plan, 1).sum()
            > comm.accountant.forward_volumes(comm_plan, 1).sum()
        )


class TestAllReduce:
    def test_single_worker_skips_allreduce(self, small_graph):
        from repro.engines import SharedMemoryEngine

        graph = prepare_graph(small_graph, "gcn")
        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=1)
        engine = SharedMemoryEngine(graph, model, variant="nts")
        report = engine.run_epoch()
        assert report.allreduce_time_s == 0.0

    def test_allreduce_scales_with_parameters(self, small_graph, cluster4):
        graph = prepare_graph(small_graph, "gcn")
        small = GNNModel.gcn(graph.feature_dim, 4, graph.num_classes, seed=1)
        big = GNNModel.gcn(graph.feature_dim, 64, graph.num_classes, seed=1)
        t_small = DepCommEngine(graph, small, cluster4).run_epoch().allreduce_time_s
        t_big = DepCommEngine(
            graph, big, ClusterSpec.ecs(4)
        ).run_epoch().allreduce_time_s
        assert t_big > t_small
