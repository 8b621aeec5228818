"""Deeper-than-2-layer models: multi-level closures and subtrees.

The paper evaluates 2-layer models, but Algorithms 2-4 are written for
arbitrary L; these tests exercise the depth-general code paths (k-hop
closures with k > 1, multi-level t_r subtrees, per-layer exchanges).
"""

import numpy as np
import pytest

from repro.core.model import GNNModel
from repro.engines import DepCacheEngine, DepCommEngine, HybridEngine
from repro.graph.khop import khop_closure
from repro.training.prep import prepare_graph


@pytest.fixture
def graph3(medium_graph):
    return prepare_graph(medium_graph, "gcn")


def run(engine_cls, graph, layers, cluster, seed=4):
    model = GNNModel.gcn(graph.feature_dim, 6, graph.num_classes,
                         num_layers=layers, seed=seed)
    engine = engine_cls(graph, model, cluster)
    report = engine.run_epoch()
    grads = [p.grad.copy() for p in model.parameters()]
    return report, grads, engine


@pytest.mark.parametrize("layers", [3, 4])
def test_equivalence_at_depth(graph3, cluster4, layers):
    ref_report, ref_grads, _ = run(DepCommEngine, graph3, layers, cluster4)
    for engine_cls in [DepCacheEngine, HybridEngine]:
        report, grads, _ = run(engine_cls, graph3, layers, cluster4)
        assert report.loss == pytest.approx(ref_report.loss, rel=1e-4)
        for ga, gb in zip(ref_grads, grads):
            assert np.allclose(ga, gb, atol=1e-3)


def test_depcache_closure_grows_with_depth(graph3, cluster4):
    _, _, shallow = run(DepCacheEngine, graph3, 2, cluster4)
    _, _, deep = run(DepCacheEngine, graph3, 3, cluster4)
    shallow_inputs = shallow.plan().blocks[0][0].num_inputs
    deep_inputs = deep.plan().blocks[0][0].num_inputs
    assert deep_inputs >= shallow_inputs


def test_depcache_compute_sets_match_closure(graph3, cluster4):
    _, _, engine = run(DepCacheEngine, graph3, 3, cluster4)
    plan = engine.plan()
    owned = engine.partitioning.part(1)
    layers, _ = khop_closure(graph3, owned, 2)
    assert np.array_equal(plan.blocks[2][1].compute_vertices, owned)
    assert np.array_equal(plan.blocks[1][1].compute_vertices, layers[1])
    assert np.array_equal(plan.blocks[0][1].compute_vertices, layers[2])


def test_hybrid_deep_subtree_costs_increase_with_level(graph3, cluster4):
    """A dependency cached at a higher layer has a deeper subtree, so
    its t_r can only grow with the layer index."""
    from repro.costmodel.costs import DependencyCostModel
    from repro.costmodel.probe import probe_constants

    model = GNNModel.gcn(graph3.feature_dim, 6, graph3.num_classes,
                         num_layers=3, seed=0)
    constants = probe_constants(cluster4, model)
    owned_mask = np.zeros(graph3.num_vertices, dtype=bool)
    owned_mask[:50] = True
    remote = np.where(~owned_mask)[0]
    # Pick a remote vertex with in-edges.
    deg = graph3.in_degrees()
    u = int(remote[np.argmax(deg[remote])])
    costs = []
    for layer in [1, 2, 3]:
        cm = DependencyCostModel(
            graph3, model.dims(), constants, owned_mask, mu=1.0
        )
        costs.append(cm.t_r(u, layer).cost_s)
    assert costs[0] == 0.0  # feature caching is free per epoch
    assert costs[2] >= costs[1] >= costs[0]


def test_deep_training_converges(graph3, cluster4):
    from repro.training.trainer import DistributedTrainer

    model = GNNModel.gcn(graph3.feature_dim, 8, graph3.num_classes,
                         num_layers=3, seed=1)
    engine = HybridEngine(graph3, model, cluster4)
    history = DistributedTrainer(engine, lr=0.02).train(epochs=12)
    assert history.reports[-1].loss < history.reports[0].loss
