"""The paper's Figure 1 worked example, verified end to end.

Figure 1 shows a 6-vertex graph split across two workers and walks
through how DepCache, DepComm, and Hybrid handle vertex 2's
dependencies in a 2-layer GCN.  These tests build that exact graph,
pin the planned compute/communication sets against hand-derived
values, and confirm all three strategies agree numerically -- the
smallest complete instance of the paper's core argument.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import DepCacheEngine, DepCommEngine, HybridEngine
from repro.graph.graph import Graph
from repro.partition.base import Partitioning


@pytest.fixture
def figure1():
    """Figure 1(a)'s graph: in-edges of vertex 2 are 1 and 4; vertex 1
    depends on 0, 3, 5 -- the chain that makes node 2's layer-2 value
    need node 1's layer-1 value."""
    src = np.array([0, 3, 5, 1, 4, 0])
    dst = np.array([1, 1, 1, 2, 2, 2])
    g = Graph(6, src, dst, name="figure1")
    rng = np.random.default_rng(0)
    g.features = rng.standard_normal((6, 4)).astype(np.float32)
    g.labels = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    g.num_classes = 2
    g.train_mask = np.ones(6, dtype=bool)
    g.val_mask = np.zeros(6, dtype=bool)
    g.test_mask = np.zeros(6, dtype=bool)
    # Worker 0 owns {0, 1, 3}; worker 1 owns {2, 4, 5} (as in Fig. 1 b).
    assignment = np.array([0, 0, 1, 0, 1, 1])
    return g.gcn_normalized(), Partitioning(assignment, 2, method="manual")


def build(engine_cls, graph, partitioning, **kwargs):
    model = GNNModel.gcn(4, 3, 2, seed=9)
    return engine_cls(
        graph, model, ClusterSpec.ecs(2), partitioning=partitioning, **kwargs
    )


class TestDepCachePlan:
    def test_worker1_caches_node1_subtree(self, figure1):
        """Figure 1(b): worker 1 must cache vertex 1 and its in-neighbors
        0, 3, 5 to compute vertex 2 without communication."""
        graph, partitioning = figure1
        engine = build(DepCacheEngine, graph, partitioning)
        plan = engine.plan()
        # Layer-1 compute set on worker 1: own {2,4,5} plus cached 1, 0.
        layer1 = set(plan.blocks[0][1].compute_vertices.tolist())
        assert {1, 2, 4, 5} <= layer1
        assert 1 in layer1  # the cached dependency
        # No communication at any layer.
        assert sum(ex.total_vertices for ex in plan.exchanges) == 0

    def test_worker1_layer1_inputs_include_subtree_leaves(self, figure1):
        graph, partitioning = figure1
        plan = build(DepCacheEngine, graph, partitioning).plan()
        inputs = set(plan.blocks[0][1].input_vertices.tolist())
        # Computing h^1(1) locally needs features of 0, 3, 5.
        assert {0, 3, 5} <= inputs


class TestDepCommPlan:
    def test_worker1_receives_node1(self, figure1):
        """Figure 1(c): worker 1 pulls h^1(1) (and features) from
        worker 0 instead of recomputing."""
        graph, partitioning = figure1
        plan = build(DepCommEngine, graph, partitioning).plan()
        # Layer 2 input: vertex 1's layer-1 value comes over the wire.
        assert 1 in plan.comm_ids[1][1].tolist()
        # Compute sets stay exactly the owned vertices.
        assert plan.blocks[0][1].compute_vertices.tolist() == [2, 4, 5]

    def test_exchange_routes_master_to_mirror(self, figure1):
        graph, partitioning = figure1
        plan = build(DepCommEngine, graph, partitioning).plan()
        exchange = plan.exchanges[1]  # layer 2
        # Worker 0 (master of vertex 1) sends to worker 1 (mirror).
        assert 1 in exchange.recv_ids[(0, 1)].tolist()


class TestNumericalAgreement:
    def test_all_strategies_identical(self, figure1):
        graph, partitioning = figure1
        losses = {}
        grads = {}
        for engine_cls in [DepCacheEngine, DepCommEngine, HybridEngine]:
            engine = build(engine_cls, graph, partitioning)
            report = engine.run_epoch()
            losses[engine_cls.name] = report.loss
            grads[engine_cls.name] = [
                p.grad.copy() for p in engine.model.parameters()
            ]
        assert losses["depcache"] == pytest.approx(losses["depcomm"], rel=1e-6)
        assert losses["hybrid"] == pytest.approx(losses["depcomm"], rel=1e-6)
        for a, b in zip(grads["depcache"], grads["depcomm"]):
            assert np.allclose(a, b, atol=1e-5)

    def test_matches_hand_computed_forward(self, figure1):
        """Vertex 2's layer-1 value equals the dense-matrix reference."""
        graph, partitioning = figure1
        engine = build(DepCommEngine, graph, partitioning)
        plan = engine.plan()
        h_values, _, _ = engine.executor.forward(plan, training=False)
        dense = np.zeros((6, 6), dtype=np.float32)
        dense[graph.dst, graph.src] = graph.edge_weight
        layer = engine.model.layer(1)
        expected = np.maximum(
            (dense @ graph.features) @ layer.linear.weight.data
            + layer.linear.bias.data,
            0.0,
        )
        # Vertex 2 on worker 1.
        pos = plan.blocks[0][1].compute_vertices.tolist().index(2)
        assert np.allclose(h_values[1][1][pos], expected[2], atol=1e-5)


class TestHybridChoice:
    def test_forced_extremes_match_pure_engines(self, figure1):
        graph, partitioning = figure1
        cache_time = build(DepCacheEngine, graph, partitioning).charge_epoch()
        all_cached = build(
            HybridEngine, graph, partitioning,
            force_cache_fraction=1.0, memory_limit_bytes=1 << 30,
        ).charge_epoch()
        assert all_cached == pytest.approx(cache_time, rel=1e-6)
        comm_time = build(DepCommEngine, graph, partitioning).charge_epoch()
        all_comm = build(
            HybridEngine, graph, partitioning, force_cache_fraction=0.0
        ).charge_epoch()
        assert all_comm == pytest.approx(comm_time, rel=1e-6)
