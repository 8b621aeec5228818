"""Shared fixtures: small graphs, tiny models, quick clusters."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.graph import generators
from repro.graph.graph import Graph


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_graph():
    """The paper's Figure 1 example-sized graph: 6 vertices, few edges."""
    src = np.array([0, 3, 5, 1, 4, 2, 0, 1])
    dst = np.array([1, 1, 1, 2, 2, 3, 2, 5])
    g = Graph(6, src, dst, name="tiny")
    rng = np.random.default_rng(0)
    g.features = rng.standard_normal((6, 8)).astype(np.float32)
    g.labels = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    g.num_classes = 2
    g.set_split(train_fraction=0.5, val_fraction=0.2, rng=rng)
    return g


@pytest.fixture
def small_graph():
    """A learnable community graph (64 vertices, 4 classes)."""
    g = generators.community(64, 4, avg_degree=8.0, seed=3)
    generators.attach_features(g, 16, 4, seed=4, class_signal=2.0)
    return g


@pytest.fixture
def medium_graph():
    """A locality graph big enough for 4-8 workers."""
    g = generators.locality_graph(
        200, 1400, locality_width=0.02, global_fraction=0.3, seed=5
    )
    generators.attach_features(g, 24, 5, seed=6)
    return g


@pytest.fixture
def cluster4():
    return ClusterSpec.ecs(4)


@pytest.fixture
def cluster2():
    return ClusterSpec.ecs(2)


def make_model(arch: str, graph: Graph, hidden: int = 12, seed: int = 7) -> GNNModel:
    return GNNModel.build(
        arch, graph.feature_dim, hidden, graph.num_classes, seed=seed
    )


@pytest.fixture
def gcn_model(small_graph):
    return make_model("gcn", small_graph)


def _check_layer_program(lp, bytes_balance: bool = True, below=None):
    """Structural invariants of one compiled ``LayerProgram``.

    Every input row has exactly one provenance, every edge is either
    tied to an incoming chunk or local, and -- for a mirror-exchange
    layer of an engine that ships what its plan fetches
    (``bytes_balance``; ROC broadcasts more) -- bytes sent over the
    exchange equal the bytes the gather steps receive.

    Where ``compile_program`` attached an :class:`InputRoute`, every
    input row has exactly one producer, and the rows read from each
    other worker are as many as the exchange (fetch + refresh) charges
    for that pair.  ``below`` is the ``LayerProgram`` of the layer
    underneath: when that one is tensor-parallel its full-graph output
    is aliased on every worker, so the route reads everything in place
    although the exchange still charges the rows as fetched.
    """
    for wp in lp.workers:
        spec = wp.compute
        assert int(spec.chunk_edges.sum()) + spec.local_edges == spec.num_edges
        if wp.route is not None:
            _check_input_route(lp, wp, bytes_balance, below)
        if lp.is_tp:
            continue
        gather = wp.steps[0]
        assert gather.kind == "get_from_dep_nbr"
        assert (
            gather.num_local + gather.num_fetch
            + gather.num_cached + gather.num_recompute
            == gather.num_inputs
        )
    if bytes_balance and not lp.is_tp:
        assert lp.exchange.total_bytes() == sum(
            wp.steps[0].fetch_bytes for wp in lp.workers
        )


def _check_input_route(lp, wp, bytes_balance, below):
    route, w = wp.route, wp.worker
    sizes = route.buffer.chunk_sizes()
    num_inputs = len(route.src_rows)
    # Exactly one producer per input row: the chunks partition the rows.
    read = np.concatenate(
        [route.buffer.source_rows(j) for j in range(len(sizes))]
    )
    assert np.array_equal(np.sort(read), np.arange(num_inputs))
    assert sorted(route.sources) == np.flatnonzero(sizes).tolist()
    assert route.sources[:1] == (w,) or sizes[w] == 0
    assert list(route.sources[1:]) == sorted(route.sources[1:])
    if lp.is_tp:
        return
    gather = wp.steps[0]
    assert num_inputs == gather.num_inputs
    if below is not None and below.is_tp:
        assert sizes[w] == num_inputs
        return
    assert sizes[w] == gather.num_local + gather.num_recompute
    assert sizes.sum() - sizes[w] == gather.num_fetch + gather.num_cached
    if bytes_balance:
        charged = lp.exchange.volumes + lp.exchange.refresh_volumes
        others = np.arange(len(sizes)) != w
        assert np.array_equal(
            sizes[others] * lp.exchange.bytes_per_message, charged[others, w]
        )


@pytest.fixture
def check_layer_program():
    return _check_layer_program
