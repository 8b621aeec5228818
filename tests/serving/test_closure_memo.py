"""Differential fence around the serving closure memo.

:class:`~repro.execution.executor.ClosureMemo` must return what
:func:`~repro.execution.executor.run_closure_forward` returns for the
same closure, byte for byte, whatever batches came before: GCN / GIN /
SAGE at 2-3 layers are memoised below the top, GAT and EdgeGated run
the reference.  The memo's exactness rests on a BLAS premise that it
probes per weight (a row of a gemm does not depend on the matmul's
height or on the row's position in it); weights that break it on
purpose are exercised here, and the premise itself is pinned by name at
serving's shapes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core.layers import EdgeGatedConv
from repro.core.model import GNNModel
from repro.execution import executor
from repro.execution.executor import ClosureMemo, run_closure_forward
from repro.graph.graph import Graph
from repro.graph.khop import khop_closure
from repro.partition.chunk import chunk_partition
from repro.serving import InferenceServer, ServingConfig, WorkloadConfig, generate_workload
from repro.tensor.optim import Adam

ARCHS = ("gcn", "gin", "sage")
FEATURES = 12


def _graph(seed, num_vertices=60, num_edges=240, isolated=0):
    """A random graph plus a ring over its first vertices, so each of
    them has an in-edge; the last ``isolated`` vertices have no edges."""
    rng = np.random.default_rng(seed)
    active = num_vertices - isolated
    ring = np.arange(active)
    src = np.concatenate([rng.integers(0, active, size=num_edges), ring])
    dst = np.concatenate([rng.integers(0, active, size=num_edges), (ring + 1) % active])
    return Graph(
        num_vertices, src, dst,
        features=rng.standard_normal((num_vertices, FEATURES)).astype(np.float32),
        edge_weight=rng.random(len(src)).astype(np.float32),
    )


def _model(arch, layers, seed=1):
    return GNNModel.build(arch, FEATURES, 16, 5, num_layers=layers, seed=seed)


def _serve(memo, seeds):
    """One batch through the memo, checked against the reference."""
    vertex_layers, _ = khop_closure(memo.graph, seeds, memo.model.num_layers)
    got = memo.forward(vertex_layers)
    expected = run_closure_forward(memo.model, memo.graph, vertex_layers)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes(), seeds
    return got


# v alone, then inside groups, then alone again: hits on each, and
# groups that overlap earlier ones only in part.
SEQUENCE = [[3], [3, 7], [7], [3, 7, 11], [11], [3], [2, 3, 5, 7, 11, 13], [3, 7]]


class TestMatchesReference:
    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_fused_reducer_models_are_memoised(self, arch, layers):
        memo = ClosureMemo(_model(arch, layers), _graph(0))
        for seeds in SEQUENCE:
            _serve(memo, seeds)
        assert memo.bypassed == 0
        assert memo.rows_memoised[-1] == 0  # the top runs as the reference
        assert all(m > 0 for m in memo.rows_memoised[:-1])

    @pytest.mark.parametrize("arch", ARCHS)
    def test_one_unknown_row(self, arch, monkeypatch):
        """A batch whose layer below the top has exactly one unknown row
        runs its vertex half over the row twice, and still matches."""
        graph = _graph(2)
        memo = ClosureMemo(_model(arch, 2), graph)
        calls = []
        layer_rows = executor._layer_rows

        def spy(layer, block, h):
            calls.append((block.layer_index, block.num_outputs))
            return layer_rows(layer, block, h)

        monkeypatch.setattr(executor, "_layer_rows", spy)
        _serve(memo, [3, 7, 11])
        # A seed whose closure adds exactly one unknown layer-1 row.
        known = set(khop_closure(graph, [3, 7, 11], 2)[0][1].tolist())
        lone = next(
            v for v in range(graph.num_vertices)
            if len(set(khop_closure(graph, [v], 2)[0][1].tolist()) - known) == 1
            and len(khop_closure(graph, [v], 2)[0][1]) > 1
        )
        calls.clear()
        _serve(memo, [lone, 3])
        assert calls == [(1, 1)]
        calls.clear()
        _serve(memo, [lone])  # alone: the top is one row, as in the reference
        assert calls == []

    @pytest.mark.parametrize("arch", ARCHS)
    def test_isolated_seed_bypasses(self, arch):
        graph = _graph(3, isolated=1)
        isolated = graph.num_vertices - 1
        memo = ClosureMemo(_model(arch, 2), graph)
        _serve(memo, [isolated])  # its layer below the top has one row
        assert memo.bypassed == 1
        assert memo._stores is None  # and nothing was written
        _serve(memo, [isolated, 3])
        _serve(memo, [isolated, 3])  # with two seeds it is memoised
        assert memo.bypassed == 1
        assert memo.rows_memoised[0] == len(khop_closure(graph, [isolated, 3], 2)[0][1])
        # A one-layer model has no layer below the top: nothing to keep.
        one_layer = ClosureMemo(_model(arch, 1), graph)
        _serve(one_layer, [isolated])
        _serve(one_layer, [isolated, 3])
        assert one_layer.bypassed == 0
        assert one_layer.rows_memoised == [0]
        assert one_layer._stores == []

    def test_layers_without_a_fused_reducer_bypass(self):
        graph = _graph(4)
        edge_gated = GNNModel([
            EdgeGatedConv(FEATURES, 16, edge_dim=3, rng=np.random.default_rng(0)),
            EdgeGatedConv(16, 5, edge_dim=3, activation="none",
                          rng=np.random.default_rng(1)),
        ])
        for model in (_model("gat", 2), edge_gated):
            memo = ClosureMemo(model, graph)
            for seeds in SEQUENCE:
                _serve(memo, seeds)
            assert memo.bypassed == len(SEQUENCE)
            assert memo.rows_memoised == [0, 0]
            assert memo._stores is None

    def test_counters(self):
        graph = _graph(5)
        memo = ClosureMemo(_model("gcn", 2), graph)
        served = [0, 0]
        for seeds in SEQUENCE:
            vertex_layers, _ = khop_closure(graph, seeds, 2)
            served[0] += len(vertex_layers[1])
            served[1] += len(vertex_layers[0])
            _serve(memo, seeds)
        assert memo.rows_served == served
        assert 0 < memo.rows_memoised[0] < served[0]
        assert memo.rows_memoised[1] == 0


@st.composite
def histories(draw):
    """A random graph (self loops, parallel edges and isolated vertices
    included), a model, and a batch sequence that revisits vertices."""
    num_vertices = draw(st.integers(2, 50))
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    num_edges = draw(st.integers(0, 4 * num_vertices))
    active = draw(st.integers(1, num_vertices))
    graph = Graph(
        num_vertices,
        rng.integers(0, active, size=num_edges),
        rng.integers(0, active, size=num_edges),
        features=rng.standard_normal((num_vertices, FEATURES)).astype(np.float32),
        edge_weight=rng.random(num_edges).astype(np.float32),
    )
    model = _model(draw(st.sampled_from(ARCHS)), draw(st.integers(1, 3)))
    pool = rng.integers(0, num_vertices, size=draw(st.integers(1, 8)))
    batches = draw(st.lists(
        st.lists(st.sampled_from(pool.tolist()), min_size=1, max_size=5),
        min_size=1, max_size=8,
    ))
    return graph, model, batches


@settings(max_examples=60, deadline=None)
@given(history=histories())
def test_every_row_matches_the_reference(history):
    graph, model, batches = history
    memo = ClosureMemo(model, graph)
    for seeds in batches:
        _serve(memo, seeds)


# -- robustness ---------------------------------------------------------
def _server_parts():
    graph = _graph(6, num_vertices=80, num_edges=400)
    cluster = ClusterSpec.ecs(4)
    return graph, _model("gcn", 2), cluster, chunk_partition(graph, 4)


def _step_adam(graph, model):
    for p in model.parameters():
        p.grad = np.ones_like(p.data)
    Adam(model.parameters(), lr=0.05).step()


def _load_state(graph, model):
    model.load_state_dict({k: v * 0.5 for k, v in model.state_dict().items()})


def _new_features(graph, model):
    graph.features = graph.features * np.float32(1.5)


def _new_edge_weight(graph, model):
    graph.edge_weight = graph.edge_weight[::-1].copy()


@pytest.mark.parametrize(
    "change", [_step_adam, _load_state, _new_features, _new_edge_weight]
)
def test_a_new_array_empties_the_memo(change):
    """Serve, change the model or the graph, serve again: the same
    answers and rows as a server built after the change."""
    graph, model, cluster, partitioning = _server_parts()
    # tau 0: no modeled-cache hit, so every answer is a forward.
    config = ServingConfig(tau_s=0.0)
    requests = generate_workload(
        WorkloadConfig(num_requests=120, rate_rps=1500.0, seed=3),
        graph.num_vertices,
    )
    vertices = sorted({r.vertex for r in requests})

    def rows(result):
        return [result.cache.peek(1, v).tobytes() for v in vertices]

    # Arrivals after the first stream's stamps: a modeled-cache entry
    # stamped later than a request would otherwise count as fresh.
    later = [dataclasses.replace(r, arrival_s=r.arrival_s + 1.0) for r in requests]
    server = InferenceServer(graph, model, cluster, partitioning, config=config)
    before = rows(server.serve(requests))
    change(graph, model)
    again = server.serve(later)
    fresh = InferenceServer(
        graph, model, cluster, partitioning, config=config
    ).serve(later)
    assert again.predictions == fresh.predictions
    assert rows(again) == rows(fresh)
    assert rows(again) != before
    assert server.closure_memo.rows_memoised[0] > 0
    # The memo is host-side bookkeeping, not part of the served result.
    assert not any("memo" in key for key in fresh.summary())


class _TallProductsDiffer(np.ndarray):
    """A weight whose products taller than 3 rows round differently, as
    under a BLAS that changes path at that height."""

    def __rmatmul__(self, rows):
        out = rows @ self.view(np.ndarray)
        return out * 1.5 if len(rows) > 3 else out


class _LastRowDiffers(np.ndarray):
    """A weight whose products round their last row differently, as
    under a BLAS whose path depends on a row's position."""

    def __rmatmul__(self, rows):
        out = rows @ self.view(np.ndarray)
        out[-1] *= 1.5
        return out


def _count_bypasses(memo, batches):
    """How many of ``batches`` the memo's rule sends to the reference:
    an isolated seed, or a closure layer taller than its probed height."""
    L = memo.model.num_layers
    count = 0
    for seeds in batches:
        vertex_layers, _ = khop_closure(memo.graph, seeds, L)
        heights = [len(vertex_layers[L - l]) for l in range(1, L + 1)]
        count += 1 in heights[:-1] or any(
            h > top for h, top in zip(heights, memo._exact_to)
        )
    return count


class TestProbedHeights:
    """The memo serves a batch only where every weight of each layer
    below the top was probed row-exact at the closure's heights;
    elsewhere it bypasses."""

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("weight_cls,exact_to", [
        (_TallProductsDiffer, 3),  # height-dependent
        (_LastRowDiffers, 1),  # position-dependent
    ])
    def test_weights_that_are_not_row_exact_bypass(self, arch, weight_cls, exact_to):
        model = _model(arch, 2)
        weights = [p for p in model.layer(1).parameters() if p.data.ndim == 2]
        weights[-1].data = weights[-1].data.view(weight_cls)
        memo = ClosureMemo(model, _graph(7, num_edges=60))
        for seeds in SEQUENCE:
            _serve(memo, seeds)
        assert memo._exact_to == [exact_to]
        assert memo.bypassed == _count_bypasses(memo, SEQUENCE) > 0
        if exact_to > 1:  # small closures are still memoised
            assert memo.bypassed < len(SEQUENCE)
            assert memo.rows_memoised[0] > 0

    def test_reddit_dimensions(self):
        """``repro serve --dataset reddit --hidden 128`` runs a 602 -> 128
        layer below the top, where OpenBLAS changes path within a few
        rows: every batch is either memoised and equal, or bypassed."""
        graph = _graph(8, num_vertices=120, num_edges=400)
        rng = np.random.default_rng(8)
        graph.features = rng.standard_normal((120, 602)).astype(np.float32)
        memo = ClosureMemo(GNNModel.build("gcn", 602, 128, 41, num_layers=2, seed=1), graph)
        batches = SEQUENCE + [[v, v + 1, v + 2, v + 3] for v in range(0, 40, 4)]
        for seeds in batches:
            _serve(memo, seeds)
        assert memo.bypassed == _count_bypasses(memo, batches)

    def test_closures_taller_than_the_probe_bypass(self, monkeypatch):
        monkeypatch.setattr(executor, "_PROBED_HEIGHT", 6)
        memo = ClosureMemo(_model("gcn", 2), _graph(9))
        _serve(memo, SEQUENCE[-2])  # too tall: nothing probed or allocated
        assert memo.bypassed == 1
        assert memo._stores is None
        memo.bypassed = 0
        for seeds in SEQUENCE:
            _serve(memo, seeds)
        assert memo._exact_to == [6]
        assert 0 < memo.bypassed == _count_bypasses(memo, SEQUENCE) < len(SEQUENCE)


@pytest.mark.parametrize("d_in,d_out", [(64, 64), (128, 64), (64, 16), (128, 16)])
def test_gemm_rows_do_not_depend_on_height(d_in, d_out):
    """The premise behind the memo's speed, at serving's shapes (float64
    rows times a float32 weight, as the closure forward runs them): a
    gemm row is the same bytes at every height from 2 to the probed
    height (128; ``serve_social``'s tallest closure layer has 96 rows)
    and at every position, so the probe lets a layer with this weight
    serve every such closure.  Where a BLAS breaks it the memo bypasses
    and stays exact, but this test fails by name."""
    height_cap = executor._PROBED_HEIGHT
    rng = np.random.default_rng(d_in * 1000 + d_out)
    weight = rng.standard_normal((d_in, d_out)).astype(np.float32)
    rows = rng.standard_normal((height_cap, d_in))
    full = rows @ weight
    for height in range(2, height_cap + 1):
        assert (rows[:height] @ weight).tobytes() == full[:height].tobytes(), height
        tail = rows[height_cap - height:] @ weight
        assert tail.tobytes() == full[height_cap - height:].tobytes(), height
    assert executor._row_exact_to(weight) == height_cap
