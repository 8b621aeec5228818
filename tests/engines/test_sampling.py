"""DistDGL-like sampling engine."""

import numpy as np
import pytest

from repro.core.model import GNNModel
from repro.engines import DepCommEngine, SamplingEngine
from repro.tensor import optim
from repro.training.prep import prepare_graph
import references


@pytest.fixture
def engine(small_graph, cluster2):
    graph = prepare_graph(small_graph, "gcn")
    model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=1)
    return SamplingEngine(
        graph, model, cluster2, fanouts=(3, 5), batch_size=16, seed=0
    )


class TestSampling:
    def test_fanout_bound_respected(self, engine):
        seeds = np.arange(10)
        closure = engine.sampler.sample_batch(engine.graph, {0: seeds})[0]
        csc = engine.graph.csc
        top = closure.blocks[-1]
        # Each seed keeps at most fanout[0]=3 in-edges.
        counts = np.bincount(top.edge_dst_pos, minlength=top.num_outputs)
        assert counts.max() <= 3
        for v, c in zip(top.compute_vertices, counts):
            assert c == min(3, csc.degree(int(v)))

    def test_blocks_chain(self, engine):
        blocks = engine.sampler.sample_batch(
            engine.graph, {0: np.arange(8)}
        )[0].blocks
        assert np.array_equal(
            blocks[0].compute_vertices, blocks[1].input_vertices
        )

    def test_fanout_arity_checked(self, small_graph, cluster2):
        graph = prepare_graph(small_graph, "gcn")
        model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes)
        with pytest.raises(ValueError, match="fanout"):
            SamplingEngine(graph, model, cluster2, fanouts=(10,))

    def test_remote_rows_counted(self, engine):
        closure = engine.sampler.sample_batch(
            engine.graph, {0: engine.partitioning.part(0)[:8]}
        )[0]
        owners = engine.assignment[closure.blocks[0].input_vertices]
        assert int((owners != 0).sum()) >= 0

    def test_epoch_runs_and_reports(self, engine):
        opt = optim.Adam(engine.model.parameters(), lr=0.01)
        report = engine.run_epoch(optimizer=opt)
        assert report.epoch_time_s > 0
        assert report.loss > 0

    def test_training_reduces_loss(self, engine):
        opt = optim.Adam(engine.model.parameters(), lr=0.02)
        first = engine.run_epoch(optimizer=opt).loss
        for _ in range(8):
            last = engine.run_epoch(optimizer=opt).loss
        assert last < first

    def test_evaluate_in_range(self, engine):
        acc = engine.evaluate()
        assert 0.0 <= acc <= 1.0

    def test_charge_epoch_cheaper_than_run(self, engine):
        t = engine.charge_epoch()
        assert t > 0

    def test_sampling_nondeterministic_across_epochs(self, engine):
        def bottom_edges(epoch):
            closure = engine.sampler.sample_batch(
                engine.graph, {0: np.arange(8)}, epoch=epoch
            )[0]
            return closure.blocks[0].edge_ids

        # Draws are keyed by epoch: the same seeds redraw the same
        # edges within an epoch, and a high-degree community graph
        # draws different ones in the next.
        assert np.array_equal(bottom_edges(0), bottom_edges(0))
        assert not np.array_equal(bottom_edges(0), bottom_edges(1))


class TestSamplingVsFullBatch:
    def test_sampled_gradient_is_biased(self, small_graph, cluster2):
        """Mini-batch sampled training != full-batch (that's the point)."""
        graph = prepare_graph(small_graph, "gcn")
        model_a = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=1)
        model_b = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=1)
        full = DepCommEngine(graph, model_a, cluster2)
        sampled = SamplingEngine(
            graph, model_b, cluster2, fanouts=(2, 2), batch_size=1000, seed=0
        )
        opt_a = references.SGD(model_a.parameters(), lr=0.1)
        opt_b = references.SGD(model_b.parameters(), lr=0.1)
        full.run_epoch(optimizer=opt_a)
        sampled.run_epoch(optimizer=opt_b)
        diffs = [
            np.abs(pa.data - pb.data).max()
            for pa, pb in zip(model_a.parameters(), model_b.parameters())
        ]
        assert max(diffs) > 1e-6
