"""System-level property tests over random graphs (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core.mirror import MirrorExchange
from repro.core.model import GNNModel
from repro.engines import DepCommEngine
from repro.graph import generators
from repro.graph.khop import dependency_layers, khop_closure
from repro.partition import chunk_partition, hash_partition
from repro.training.prep import prepare_graph


def random_graph(seed: int, n_lo=12, n_hi=60):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi))
    return generators.erdos_renyi(n, n * 3, seed=seed)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 500))
def test_khop_closure_edges_belong_to_closure(seed):
    g = random_graph(seed)
    seeds = np.arange(min(5, g.num_vertices))
    layers, edge_layers = khop_closure(g, seeds, 2)
    for t, eids in enumerate(edge_layers):
        # Every edge at step t targets a vertex in layer t's set.
        assert np.isin(g.dst[eids], layers[t]).all()
        # ...and its source is in the next (expanded) layer.
        assert np.isin(g.src[eids], layers[t + 1]).all()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 500), st.integers(2, 5))
def test_dependency_layers_are_remote_in_neighbors(seed, m):
    g = random_graph(seed)
    if g.num_vertices < m:
        return
    p = chunk_partition(g, m)
    for w in range(m):
        deps = dependency_layers(g, p.part(w), 2)[0]
        assert (p.assignment[deps] != w).all()
        # Every dep really is an in-neighbor of an owned vertex.
        owned_mask = p.assignment == w
        in_nbrs = np.unique(g.src[owned_mask[g.dst]])
        assert np.isin(deps, in_nbrs).all()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 300), st.integers(2, 4))
def test_mirror_exchange_conservation(seed, m):
    g = random_graph(seed)
    if g.num_vertices < m:
        return
    p = chunk_partition(g, m)
    comm = [
        dependency_layers(g, p.part(w), 1)[0] for w in range(m)
    ]
    exchange = MirrorExchange(p.assignment, comm, m)
    # Counts conserve the dependency multiset.
    assert exchange.counts.sum() == sum(len(c) for c in comm)
    # Per receiver, the recv lists partition its dependency set.
    for w in range(m):
        received = [
            ids for (_, receiver), ids in exchange.recv_ids.items()
            if receiver == w
        ]
        merged = (
            np.sort(np.concatenate(received)) if received
            else np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(merged, np.sort(comm[w]))


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 100))
def test_engine_runs_on_random_graphs(seed):
    g = random_graph(seed, n_lo=16, n_hi=40)
    generators.attach_features(g, 5, 3, seed=seed + 1)
    graph = prepare_graph(g, "gcn")
    model = GNNModel.gcn(5, 4, 3, seed=0)
    engine = DepCommEngine(graph, model, ClusterSpec.ecs(2))
    report = engine.run_epoch()
    assert report.epoch_time_s > 0
    assert np.isfinite(report.loss)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 200))
def test_partitioning_choice_does_not_change_numerics(seed):
    g = random_graph(seed, n_lo=20, n_hi=40)
    generators.attach_features(g, 5, 3, seed=seed + 1)
    graph = prepare_graph(g, "gcn")
    losses = []
    for partitioner in (chunk_partition, hash_partition):
        model = GNNModel.gcn(5, 4, 3, seed=0)
        engine = DepCommEngine(
            graph, model, ClusterSpec.ecs(2),
            partitioning=partitioner(graph, 2),
        )
        losses.append(engine.run_epoch().loss)
    assert losses[0] == pytest.approx(losses[1], rel=1e-5)
