"""Tensor-parallel engine: numerics, plan shape, and four-way parity.

The TP engine's contract is structural: slicing the feature dimension
and aggregating the *full* edge set on slices recombines to exactly the
single-worker forward, so the multi-worker run must be bit-identical to
a one-worker reference on every catalog graph.  The loss is compared
with a float tolerance only because the per-worker loss partials sum in
a different order than the single-worker reduction.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.graph import generators
from repro.graph.datasets import DATASETS, load_dataset
from repro.training.prep import prepare_graph
import references

# Scale factors keeping every catalog graph test-sized.
_SCALES = {"social-large": 0.05}


def _build_pair(name: str, num_workers: int, arch: str = "gcn", hidden: int = 16):
    graph = prepare_graph(
        load_dataset(name, scale=_SCALES.get(name, 0.5)), arch
    )
    model_tp = GNNModel.build(
        arch, graph.feature_dim, hidden, graph.num_classes,
        num_layers=2, seed=0,
    )
    model_ref = GNNModel.build(
        arch, graph.feature_dim, hidden, graph.num_classes,
        num_layers=2, seed=0,
    )
    tp = make_engine("tp", graph, model_tp, ClusterSpec.ecs(num_workers))
    ref = make_engine("depcomm", graph, model_ref, ClusterSpec.ecs(1))
    return tp, ref


class TestSingleWorkerParity:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_forward_bit_identical_and_loss_matches(self, name):
        tp, ref = _build_pair(name, num_workers=4)
        h_tp, _, _ = tp.executor.forward(tp.plan(), training=False)
        h_ref, _, _ = ref.executor.forward(ref.plan(), training=False)
        # TP layers compute on the shared full-graph block, so worker
        # 0's final rows are the full output in vertex order -- same
        # layout as the one-worker reference.
        assert np.array_equal(h_tp[tp.num_layers][0], h_ref[ref.num_layers][0])
        loss_tp = tp.run_epoch().loss
        loss_ref = ref.run_epoch().loss
        assert loss_tp == pytest.approx(loss_ref, rel=1e-5, abs=1e-6)

    def test_loss_trajectory_tracks_reference(self):
        tp, ref = _build_pair("reddit", num_workers=4)
        opt_tp = references.SGD(tp.model.parameters(), lr=0.05)
        opt_ref = references.SGD(ref.model.parameters(), lr=0.05)
        for _ in range(3):
            loss_tp = tp.run_epoch(optimizer=opt_tp).loss
            loss_ref = ref.run_epoch(optimizer=opt_ref).loss
            assert loss_tp == pytest.approx(loss_ref, rel=1e-5, abs=1e-6)

    def test_worker_count_does_not_change_forward(self):
        tp2, _ = _build_pair("pubmed", num_workers=2)
        tp8, _ = _build_pair("pubmed", num_workers=8)
        h2, _, _ = tp2.executor.forward(tp2.plan(), training=False)
        h8, _, _ = tp8.executor.forward(tp8.plan(), training=False)
        assert np.array_equal(h2[2][0], h8[2][0])


def _community_setup(num_workers=4, hidden=8):
    g = generators.community(96, 4, avg_degree=8.0, seed=5)
    generators.attach_features(g, 12, 4, seed=6)
    graph = prepare_graph(g, "gcn")
    model = GNNModel.build(
        "gcn", graph.feature_dim, hidden, graph.num_classes,
        num_layers=2, seed=1,
    )
    return graph, model, ClusterSpec.ecs(num_workers)


class TestPlanShape:
    def test_pure_tp_plan_flags_every_layer(self):
        graph, model, cluster = _community_setup()
        plan = make_engine("tp", graph, model, cluster).plan()
        assert plan.tp_layers == [True, True]
        # All workers share one full-graph block per layer.
        for l in (1, 2):
            blocks = plan.blocks[l - 1]
            assert all(b is blocks[0] for b in blocks)
            assert len(blocks[0].compute_vertices) == graph.num_vertices

    def test_tp_layers_have_slice_and_unslice_exchanges(self):
        graph, model, cluster = _community_setup()
        engine = make_engine("tp", graph, model, cluster)
        engine.plan()
        for lp in engine.program_.layers:
            assert lp.is_tp
            assert lp.post_exchange is not None
            # The unslice volumes are the slice volumes transposed.
            assert np.array_equal(
                lp.exchange.volumes.T, lp.post_exchange.volumes
            )

    def test_explain_plan_renders_tensor_parallel_layers(self):
        from repro.execution import render_program

        graph, model, cluster = _community_setup()
        engine = make_engine("tp", graph, model, cluster)
        engine.plan()
        text = render_program(engine)
        assert "tensor-parallel" in text
        assert "SliceAllToAll" in text


class TestFourWayParity:
    def test_hybrid4_matches_hybrid_when_no_layer_flips(self):
        """On a small flat graph the all-to-all's latency floor never
        wins, so the four-way engine must reproduce the three-way
        hybrid's decisions and charge bit for bit."""
        graph, model, cluster = _community_setup()
        h3 = make_engine("hybrid", graph, model, cluster)
        h4 = make_engine("hybrid4", graph, model, cluster)
        plan3, plan4 = h3.plan(), h4.plan()
        assert plan4.tp_layers == [False, False]
        for l in range(h3.num_layers):
            for w in range(cluster.num_workers):
                assert np.array_equal(
                    plan3.cached_deps[l][w], plan4.cached_deps[l][w]
                )
                assert np.array_equal(
                    plan3.comm_ids[l][w], plan4.comm_ids[l][w]
                )
        assert h3.charge_epoch() == h4.charge_epoch()

    def test_hybrid4_numerics_match_hybrid(self):
        graph, model, cluster = _community_setup()
        model2 = GNNModel.build(
            "gcn", graph.feature_dim, 8, graph.num_classes,
            num_layers=2, seed=1,
        )
        h3 = make_engine("hybrid", graph, model, cluster)
        h4 = make_engine("hybrid4", graph, model2, cluster)
        assert h3.run_epoch().loss == h4.run_epoch().loss
