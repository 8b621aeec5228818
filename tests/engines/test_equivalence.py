"""The reproduction's core correctness claim: all dependency-management
strategies compute identical full-batch results.

DepCache recomputes dependencies redundantly, DepComm fetches them, and
Hybrid mixes both -- but each vertex's representation and every
parameter gradient must come out (bit-near-)identical, and all must
match a single-worker reference.  This is what lets the paper's Hybrid
"keep the high accuracy and fast convergence speed" of full-batch
training (Section 3, Convergence Speed).
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import (
    DepCacheEngine,
    DepCommEngine,
    HybridEngine,
    RocLikeEngine,
    SharedMemoryEngine,
)
from repro.training.prep import prepare_graph

ENGINES = [DepCacheEngine, DepCommEngine, HybridEngine, RocLikeEngine]


def run_once(engine_cls, graph, arch, cluster, seed=11, **kwargs):
    model = GNNModel.build(arch, graph.feature_dim, 12, graph.num_classes, seed=seed)
    engine = engine_cls(graph, model, cluster, **kwargs)
    report = engine.run_epoch()
    grads = [p.grad.copy() for p in model.parameters()]
    return report.loss, grads, engine


@pytest.mark.parametrize("arch", ["gcn", "gin", "gat"])
def test_all_engines_same_loss_and_gradients(small_graph, cluster4, arch):
    graph = prepare_graph(small_graph, arch)
    reference_loss, reference_grads, _ = run_once(
        DepCommEngine, graph, arch, cluster4
    )
    for engine_cls in [DepCacheEngine, HybridEngine, RocLikeEngine]:
        loss, grads, _ = run_once(engine_cls, graph, arch, cluster4)
        assert loss == pytest.approx(reference_loss, rel=1e-5), engine_cls.name
        for ga, gb in zip(reference_grads, grads):
            assert np.allclose(ga, gb, atol=1e-4), engine_cls.name


def test_distributed_matches_single_worker(small_graph):
    graph = prepare_graph(small_graph, "gcn")
    single_loss, single_grads, _ = run_once(
        SharedMemoryEngine, graph, "gcn", None, variant="nts"
    )
    for m in [2, 4]:
        loss, grads, _ = run_once(DepCommEngine, graph, "gcn", ClusterSpec.ecs(m))
        assert loss == pytest.approx(single_loss, rel=1e-5)
        for ga, gb in zip(single_grads, grads):
            assert np.allclose(ga, gb, atol=1e-4)


def test_hybrid_matches_across_forced_ratios(small_graph, cluster4):
    graph = prepare_graph(small_graph, "gcn")
    losses = []
    for fraction in [0.0, 0.3, 0.7, 1.0]:
        loss, _, _ = run_once(
            HybridEngine, graph, "gcn", cluster4, force_cache_fraction=fraction
        )
        losses.append(loss)
    assert max(losses) - min(losses) < 1e-5


def test_evaluation_identical_across_engines(small_graph, cluster4):
    graph = prepare_graph(small_graph, "gcn")
    accs = []
    for engine_cls in ENGINES:
        model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=11)
        engine = engine_cls(graph, model, cluster4)
        accs.append(engine.evaluate())
    assert len(set(accs)) == 1


def test_forward_values_match_owner_copies(small_graph, cluster4):
    """Redundant DepCache copies equal the owner's values exactly."""
    graph = prepare_graph(small_graph, "gcn")
    model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=11)
    engine = DepCacheEngine(graph, model, cluster4)
    plan = engine.plan()
    h_values, _, _ = engine.executor.forward(plan, training=False)
    L = engine.num_layers
    for w in range(4):
        ids = plan.blocks[L - 2][w].compute_vertices  # layer-1 values incl. cached
        for row, v in enumerate(ids[:10]):
            owner = engine.assignment[v]
            if owner == w:
                continue
            theirs = np.searchsorted(plan.blocks[0][owner].compute_vertices, v)
            assert plan.blocks[0][owner].compute_vertices[theirs] == v
            assert np.allclose(
                h_values[1][w][row], h_values[1][owner][theirs], atol=1e-6
            )


def test_training_improves_accuracy_all_engines(small_graph, cluster4):
    from repro.training.trainer import DistributedTrainer

    graph = prepare_graph(small_graph, "gcn")
    for engine_cls in [DepCacheEngine, DepCommEngine, HybridEngine]:
        model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=11)
        engine = engine_cls(graph, model, cluster4)
        before = engine.evaluate()
        trainer = DistributedTrainer(engine, lr=0.05)
        history = trainer.train(epochs=15)
        after = engine.evaluate()
        assert history.reports[-1].loss < history.reports[0].loss
        assert after > max(before, 0.5)
