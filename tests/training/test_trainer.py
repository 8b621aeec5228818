"""Trainer, history, and time-to-accuracy bookkeeping."""

import numpy as np
import pytest

from repro.core.model import GNNModel
from repro.engines import DepCommEngine, HybridEngine
from repro.training.prep import prepare_graph
from repro.training.trainer import DistributedTrainer, TrainingHistory


@pytest.fixture
def engine(small_graph, cluster2):
    graph = prepare_graph(small_graph, "gcn")
    model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=1)
    return DepCommEngine(graph, model, cluster2)


class TestTrainer:
    def test_loss_decreases(self, engine):
        trainer = DistributedTrainer(engine, lr=0.05)
        history = trainer.train(epochs=10)
        assert history.reports[-1].loss < history.reports[0].loss

    def test_history_accounting(self, engine):
        trainer = DistributedTrainer(engine, lr=0.05)
        history = trainer.train(epochs=5, eval_every=2)
        assert len(history.reports) == 5
        assert history.total_time_s == pytest.approx(
            sum(r.epoch_time_s for r in history.reports)
        )
        assert history.avg_epoch_time_s > 0
        # Evals at 2, 4, and the final epoch 5.
        assert [p.epoch for p in history.convergence] == [2, 4, 5]

    def test_convergence_times_monotone(self, engine):
        trainer = DistributedTrainer(engine, lr=0.05)
        history = trainer.train(epochs=6, eval_every=2)
        times = [p.time_s for p in history.convergence]
        assert times == sorted(times)

    def test_time_to_accuracy(self, engine):
        trainer = DistributedTrainer(engine, lr=0.05)
        history = trainer.train(epochs=20, eval_every=2)
        best = history.best_accuracy()
        assert best > 0.5
        t = history.time_to_accuracy(best - 0.01)
        assert t is not None and t <= history.total_time_s
        assert history.time_to_accuracy(1.1) is None

    def test_unknown_optimizer(self, engine):
        with pytest.raises(ValueError):
            DistributedTrainer(engine, optimizer="lbfgs")

    def test_zero_epochs_rejected(self, engine):
        with pytest.raises(ValueError):
            DistributedTrainer(engine).train(epochs=0)

    def test_empty_history_properties(self):
        h = TrainingHistory(engine_name="x")
        assert h.avg_epoch_time_s == 0.0
        assert h.best_accuracy() == 0.0
        assert np.isnan(h.final_loss)


class TestPrepareGraph:
    def test_gcn_normalises(self, small_graph):
        g = prepare_graph(small_graph, "gcn")
        assert g.edge_weight.max() <= 1.0
        assert g.num_edges > small_graph.num_edges  # self loops added

    def test_gat_plain_weights(self, small_graph):
        g = prepare_graph(small_graph, "GAT")
        assert np.allclose(g.edge_weight, 1.0)

    def test_unknown_arch(self, small_graph):
        with pytest.raises(ValueError):
            prepare_graph(small_graph, "transformer")


class TestHybridTraining:
    def test_hybrid_trains_like_depcomm(self, small_graph, cluster2):
        graph = prepare_graph(small_graph, "gcn")
        results = {}
        for engine_cls in [DepCommEngine, HybridEngine]:
            model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=1)
            engine = engine_cls(graph, model, cluster2)
            trainer = DistributedTrainer(engine, lr=0.05)
            history = trainer.train(epochs=12, eval_every=12)
            results[engine_cls.name] = history.convergence[-1].accuracy
        assert results["hybrid"] == pytest.approx(results["depcomm"], abs=0.02)
