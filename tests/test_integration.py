"""End-to-end integration: the full public-API pipeline at small scale."""

import pytest

import repro
from repro import (
    ClusterSpec,
    DistributedTrainer,
    GNNModel,
    load_dataset,
    make_engine,
)
from repro.comm.scheduler import CommOptions
from repro.graph.datasets import spec_of
from repro.partition import get_partitioner
from repro.training import prepare_graph


def test_package_exports():
    assert repro.__version__
    for name in ["GCNConv", "GINConv", "GATConv", "HybridEngine"]:
        assert hasattr(repro, name)


def test_quickstart_pipeline():
    """The README quickstart, condensed."""
    graph = prepare_graph(load_dataset("reddit", scale=0.3), "gcn")
    spec = spec_of("reddit")
    cluster = ClusterSpec.ecs(4)
    model = GNNModel.gcn(graph.feature_dim, 32, graph.num_classes, seed=0)
    engine = make_engine("hybrid", graph, model, cluster)
    trainer = DistributedTrainer(engine, lr=0.02)
    history = trainer.train(epochs=25, eval_every=5)
    assert history.best_accuracy() > 0.6
    assert history.total_time_s > 0


def test_engines_agree_on_real_dataset():
    graph = prepare_graph(load_dataset("google", scale=0.1), "gcn")
    cluster = ClusterSpec.ecs(4)
    losses = {}
    for name in ["depcache", "depcomm", "hybrid"]:
        model = GNNModel.gcn(graph.feature_dim, 16, graph.num_classes, seed=3)
        engine = make_engine(name, graph, model, cluster)
        losses[name] = engine.run_epoch().loss
    assert losses["depcache"] == pytest.approx(losses["depcomm"], rel=1e-5)
    assert losses["hybrid"] == pytest.approx(losses["depcomm"], rel=1e-5)


def test_custom_partitioner_with_engine():
    graph = prepare_graph(load_dataset("reddit"), "gcn")
    cluster = ClusterSpec.ecs(8)
    volumes = {}
    for method in ["chunk", "metis"]:
        partitioning = get_partitioner(method)(graph, 8)
        model = GNNModel.gcn(graph.feature_dim, 16, graph.num_classes, seed=3)
        engine = make_engine(
            "depcomm", graph, model, cluster, partitioning=partitioning
        )
        plan = engine.plan()
        volumes[method] = engine.accountant.forward_volumes(plan, 1).sum()
    # Metis finds reddit's interleaved communities; chunking cannot.
    # (At this scale distinct-vertex dedup caps the gap: even a low edge
    # cut still references most remote vertices once, so the volume win
    # is real but modest.)
    assert volumes["metis"] < volumes["chunk"]


def test_gat_distributed_training():
    graph = prepare_graph(load_dataset("reddit", scale=0.25), "gat")
    cluster = ClusterSpec.ecs(2)
    model = GNNModel.gat(graph.feature_dim, 16, graph.num_classes, seed=0)
    engine = make_engine("hybrid", graph, model, cluster)
    trainer = DistributedTrainer(engine, lr=0.001)
    history = trainer.train(epochs=12)
    assert history.reports[-1].loss < history.reports[0].loss


def test_make_engine_unknown():
    with pytest.raises(KeyError, match="unknown engine"):
        make_engine("magic", None, None, None)


def test_utilization_trace_records():
    graph = prepare_graph(load_dataset("orkut", scale=0.2), "gcn")
    cluster = ClusterSpec.ecs(4)
    model = GNNModel.gcn(graph.feature_dim, 16, graph.num_classes, seed=0)
    engine = make_engine(
        "hybrid", graph, model, cluster,
        comm=CommOptions.all(), record_timeline=True,
    )
    for _ in range(3):
        engine.charge_epoch()
    summary = engine.timeline.utilization_summary()
    assert 0 < summary["gpu"] <= 1.0
    window = engine.timeline.makespan / 10
    trace = engine.timeline.busy_fraction("gpu", window=window)
    assert len(trace) == 10
