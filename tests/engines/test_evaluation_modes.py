"""Evaluation masks, hybrid budgets, and misc engine coverage."""

import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import DepCommEngine, HybridEngine, SamplingEngine
from repro.training.prep import prepare_graph


@pytest.fixture
def graph(small_graph):
    return prepare_graph(small_graph, "gcn")


class TestEvaluationMasks:
    def test_default_is_test_mask(self, graph, cluster2):
        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=1)
        engine = DepCommEngine(graph, model, cluster2)
        assert engine.evaluate() == engine.evaluate(mask=graph.test_mask)

    def test_val_mask_differs_from_test(self, graph, cluster2):
        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=1)
        engine = DepCommEngine(graph, model, cluster2)
        val = engine.evaluate(mask=graph.val_mask)
        assert 0.0 <= val <= 1.0

    def test_train_mask_accuracy_after_training(self, graph, cluster2):
        from repro.training.trainer import DistributedTrainer

        model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=1)
        engine = DepCommEngine(graph, model, cluster2)
        DistributedTrainer(engine, lr=0.05).train(epochs=15)
        # Train accuracy should be at least test accuracy.
        assert engine.evaluate(mask=graph.train_mask) >= (
            engine.evaluate(mask=graph.test_mask) - 0.1
        )

    def test_missing_mask_raises(self, graph, cluster2):
        bare = prepare_graph(graph, "gcn")
        bare.test_mask = None
        model = GNNModel.gcn(bare.feature_dim, 8, bare.num_classes, seed=1)
        engine = DepCommEngine(bare, model, cluster2)
        with pytest.raises(ValueError, match="test mask"):
            engine.evaluate()

    def test_sampling_engine_mask(self, graph, cluster2):
        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=1)
        engine = SamplingEngine(
            graph, model, cluster2, fanouts=(3, 3), batch_size=16
        )
        acc = engine.evaluate(mask=graph.val_mask)
        assert 0.0 <= acc <= 1.0


class TestHybridBudget:
    def test_smaller_budget_caches_less(self, graph, cluster2):
        def ratio(budget):
            model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes,
                                 seed=1)
            engine = HybridEngine(
                graph, model, cluster2, memory_limit_bytes=budget
            )
            return engine.plan().cache_ratio()

        assert ratio(128) <= ratio(1 << 26)

    def test_mu_passed_through(self, graph, cluster2):
        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=1)
        engine = HybridEngine(graph, model, cluster2, mu=0.3)
        assert engine.mu == 0.3
        engine.plan()  # must not raise

    def test_invalid_mu_rejected_at_plan(self, graph, cluster2):
        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=1)
        engine = HybridEngine(graph, model, cluster2, mu=0.0)
        with pytest.raises(ValueError):
            engine.plan()


class TestSingleWorkerDegeneracy:
    def test_all_engines_collapse_to_local(self, graph):
        """On one worker every strategy is the same plan."""
        from repro.engines import DepCacheEngine

        single = ClusterSpec.single_gpu()
        plans = []
        for engine_cls in [DepCacheEngine, DepCommEngine, HybridEngine]:
            model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes,
                                 seed=1)
            plan = engine_cls(graph, model, single).plan()
            plans.append(plan)
            assert sum(ex.total_vertices for ex in plan.exchanges) == 0
        sizes = {p.blocks[0][0].num_edges for p in plans}
        assert len(sizes) == 1
