"""White-box tests of the base engine's internal machinery."""

import numpy as np
import pytest

from repro.core.model import GNNModel
from repro.engines import DepCommEngine, HybridEngine
from repro.engines.base import BaseEngine
from repro.training.prep import prepare_graph


@pytest.fixture
def engine(medium_graph, cluster4):
    graph = prepare_graph(medium_graph, "gcn")
    model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=2)
    return DepCommEngine(graph, model, cluster4)


class TestGatherInputs:
    def test_layer1_inputs_are_features(self, engine):
        plan = engine.plan()
        block = plan.blocks[0][0]
        rows = engine.executor.gather_inputs(plan, [None] * 3, 1, 0, block)
        assert np.allclose(rows, engine.graph.features[block.input_vertices])

    def test_layer2_remote_rows_from_owner(self, engine):
        plan = engine.plan()
        # Fabricate distinct per-worker layer-1 outputs: worker w's rows
        # are all equal to w + 1.
        h_values = [None, [], None]
        for w in range(4):
            ids = plan.blocks[0][w].compute_vertices
            h_values[1].append(
                np.full((len(ids), 8), float(w + 1), dtype=np.float32)
            )
        block = plan.blocks[1][0]
        rows = engine.executor.gather_inputs(plan, h_values, 2, 0, block)
        owners = engine.assignment[block.input_vertices]
        assert np.allclose(rows[:, 0], owners + 1.0)


class TestVolumeMatrices:
    def test_backward_is_transpose_of_forward(self, engine):
        plan = engine.plan()
        forward = engine.accountant.forward_volumes(plan, 2)
        backward = engine.accountant.backward_volumes(2)
        assert np.array_equal(backward, forward.T)

    def test_layer1_backward_empty(self, engine):
        engine.plan()
        assert engine.accountant.backward_volumes(1).sum() == 0

    def test_forward_volumes_match_exchange_counts(self, engine):
        plan = engine.plan()
        volumes = engine.accountant.forward_volumes(plan, 1)
        counts = plan.exchanges[0].counts
        assert np.array_equal(volumes, counts * engine.dims[0] * 4)

    def test_diagonal_is_zero(self, engine):
        plan = engine.plan()
        volumes = engine.accountant.forward_volumes(plan, 1)
        assert np.allclose(np.diag(volumes), 0.0)


class TestLayerComputeSplit:
    def test_shapes_and_positivity(self, engine):
        engine.plan()
        chunk, local, dense = engine.accountant.layer_compute_split(1)
        m = engine.cluster.num_workers
        assert chunk.shape == (m, m)
        assert (chunk >= 0).all() and (local >= 0).all() and (dense > 0).all()

    def test_chunk_compute_only_where_comm(self, engine):
        plan = engine.plan()
        chunk, _, _ = engine.accountant.layer_compute_split(1)
        counts = plan.exchanges[0].counts
        # No compute charged for pairs with no received vertices.
        assert (chunk[counts == 0] == 0).all()


class TestAdversarialSubclass:
    def test_overlapping_decisions_resolved(self, medium_graph, cluster4):
        """A subclass listing a dependency in BOTH R and C still plans:
        the communicated set wins (intersection with the decision list),
        and numerics stay correct."""
        graph = prepare_graph(medium_graph, "gcn")

        class SloppyEngine(BaseEngine):
            name = "sloppy"

            def decide_dependencies(self, worker):
                from repro.graph.khop import dependency_layers
                deps = dependency_layers(
                    self.graph, self.partitioning.part(worker), self.num_layers
                )
                # Everything in both sets; nothing served stale.
                empty = [np.empty(0, dtype=np.int64) for _ in deps]
                return (
                    [d.copy() for d in deps], [d.copy() for d in deps],
                    empty, 0.0,
                )

        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=2)
        sloppy = SloppyEngine(graph, model, cluster4)
        loss_sloppy = sloppy.run_epoch().loss

        model2 = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=2)
        reference = DepCommEngine(graph, model2, cluster4)
        assert loss_sloppy == pytest.approx(reference.run_epoch().loss, rel=1e-5)

    def test_base_decide_is_abstract(self, medium_graph, cluster4):
        graph = prepare_graph(medium_graph, "gcn")
        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes)
        engine = BaseEngine(graph, model, cluster4)
        with pytest.raises(NotImplementedError):
            engine.plan()


class TestNoHookShims:
    def test_engine_has_no_executor_or_accountant_trampolines(self):
        """Numerics live on ``engine.executor``, charging on
        ``engine.accountant`` (customised via ``accountant_cls``); the
        engine itself no longer carries a private alias for either."""
        removed = (
            "_forward", "_gather_inputs", "_apply_historical_cache",
            "_compute_loss", "_backward", "_route_input_grads",
            "_accumulate", "_layer_compute_split", "_forward_volumes",
            "_backward_volumes", "_cache_traffic", "_charge_forward_layer",
            "_charge_backward_layer", "_charge_allreduce",
            "_account_memory", "_max_chunk_edges", "epoch_time_estimate",
            "_pos_in_compute", "_stale_rows",
        )
        from repro.engines import _ENGINES, SharedMemoryEngine

        for cls in {BaseEngine, SharedMemoryEngine, *_ENGINES.values()}:
            leftover = [name for name in removed if hasattr(cls, name)]
            assert not leftover, (cls.__name__, leftover)


class TestEpochReportFields:
    def test_phases_sum_to_epoch(self, engine):
        report = engine.run_epoch()
        total = (
            report.forward_time_s
            + report.backward_time_s
            + report.allreduce_time_s
        )
        assert total == pytest.approx(report.epoch_time_s, rel=1e-6)

    def test_epoch_counter_increments(self, engine):
        first = engine.run_epoch()
        second = engine.run_epoch()
        assert second.epoch == first.epoch + 1

    def test_hybrid_reports_preprocessing_once(self, medium_graph, cluster4):
        graph = prepare_graph(medium_graph, "gcn")
        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=2)
        engine = HybridEngine(graph, model, cluster4)
        prep1 = engine.plan().preprocessing_s
        engine.run_epoch()
        assert engine.plan().preprocessing_s == prep1  # plan cached
