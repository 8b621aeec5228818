"""Fence around the serving closure memo.

:class:`~repro.execution.executor.ClosureMemo` defines a served answer:
each (layer, vertex) row is computed once, and a vertex's answer is its
top-layer row.  Every memoised row must lie within rounding of
:func:`~repro.execution.executor.run_closure_forward` over the vertex's
one-seed closure, with the same argmax, for GCN / GIN / SAGE at 1-3
layers and for GAT; and a served row must have the same bytes whichever
batch, mode or segment of one server serves it.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core.layers import GATConv, GCNConv
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
TOLERANCE = dict(rtol=1e-12, atol=1e-12)


def _graph(seed, num_vertices=60, num_edges=240, isolated=0):
    """A random graph plus a ring over its first vertices, so each of
    them has an in-edge; the last ``isolated`` vertices have no edges."""
    rng = np.random.default_rng(seed)
    active = num_vertices - isolated
    ring = np.arange(active)
    src = np.concatenate([rng.integers(0, active, size=num_edges), ring])
    dst = np.concatenate([rng.integers(0, active, size=num_edges), (ring + 1) % active])
    features = rng.standard_normal((num_vertices, FEATURES)).astype(np.float32)
    graph = Graph(
        num_vertices, src, dst,
        edge_weight=rng.random(len(src)).astype(np.float32),
    )
    graph.features = features
    return graph


def _model(arch, layers, seed=1):
    return GNNModel.build(arch, FEATURES, 16, 5, num_layers=layers, seed=seed)


def _narrowing_gcn(seed=1):
    """GCN 12 -> 16 -> 8 -> 5: layer 2, below the top, multiplies first,
    and so does the top."""
    rng = np.random.default_rng(seed)
    return GNNModel([
        GCNConv(FEATURES, 16, rng=rng),
        GCNConv(16, 8, rng=rng),
        GCNConv(8, 5, activation="none", rng=rng),
    ])


def _fill(memo, batches):
    """What ``serve()`` does first: fill every requested vertex."""
    L = memo.model.num_layers
    vertices = sorted({v for b in batches for v in b})
    memo.fill([khop_closure(memo.graph, [v], L)[0] for v in vertices])


def _memo_rows(memo):
    """Every memoised row: ``(layer, vertex, row)``."""
    for l, store in enumerate(memo._stores, 1):
        for v in np.flatnonzero(store.slot >= 0).tolist():
            yield l, v, store.read(np.array([v]))[0]


def _check_rows(memo):
    """Each memoised layer-``l`` row against the closure forward of the
    model's first ``l`` layers over the vertex's one-seed closure.
    Returns the rows' bytes, keyed by (layer, vertex)."""
    graph, layers = memo.graph, memo.model.layers
    seen = {}
    for l, v, row in _memo_rows(memo):
        expected = run_closure_forward(
            GNNModel(layers[:l]), graph, khop_closure(graph, [v], l)[0]
        )[0]
        np.testing.assert_allclose(row, expected, **TOLERANCE, err_msg=f"layer {l}, vertex {v}")
        assert row.argmax() == expected.argmax(), (l, v)
        seen[l, v] = row.tobytes()
    return seen


# v alone, then inside groups, then alone again, and groups that
# overlap earlier ones in part.
SEQUENCE = [[3], [3, 7], [7], [3, 7, 11], [11], [3], [2, 3, 5, 7, 11, 13], [3, 7]]


class TestMatchesReference:
    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_fused_reducer_models_are_memoised(self, arch, layers):
        memo = ClosureMemo(_model(arch, layers), _graph(0))
        _fill(memo, SEQUENCE)
        rows = _check_rows(memo)
        top = memo.rows(np.array(sorted(set(sum(SEQUENCE, [])))))
        assert [r.tobytes() for r in top] == [
            rows[layers, v] for v in sorted(set(sum(SEQUENCE, [])))
        ]

    @pytest.mark.parametrize("arch", ARCHS)
    def test_one_unknown_row(self, arch):
        """A fill whose layer below the top adds exactly one row runs a
        one-row block, matches, and leaves every earlier row's bytes."""
        graph = _graph(2)
        memo = ClosureMemo(_model(arch, 2), graph)
        _fill(memo, [[3, 7, 11]])
        before = _check_rows(memo)
        known = set(khop_closure(graph, [3, 7, 11], 2)[0][1].tolist())
        lone = next(
            v for v in range(graph.num_vertices)
            if len(set(khop_closure(graph, [v], 2)[0][1].tolist()) - known) == 1
        )
        used = memo._stores[0].used
        _fill(memo, [[lone]])
        assert memo._stores[0].used == used + 1
        after = _check_rows(memo)
        assert {k: after[k] for k in before} == before

    @pytest.mark.parametrize("arch", ARCHS)
    def test_isolated_seed_is_filled(self, arch):
        """A vertex without edges: every layer of its closure is one row."""
        graph = _graph(3, isolated=1)
        isolated = graph.num_vertices - 1
        for layers in (1, 2):
            memo = ClosureMemo(_model(arch, layers), graph)
            _fill(memo, [[isolated], [isolated, 3]])
            assert (layers, isolated) in _check_rows(memo)

    def test_a_layer_below_the_top_that_multiplies_first(self):
        model = _narrowing_gcn()
        assert [layer.multiplies_first for layer in model.layers] == [False, True, True]
        memo = ClosureMemo(model, _graph(0))
        _fill(memo, SEQUENCE)
        assert len(_check_rows(memo)) > len(sum(SEQUENCE, []))

    def test_layers_without_a_fused_reducer_are_filled(self):
        graph = _graph(4)
        # Attention on top of a fused layer, and attention throughout.
        gcn_then_gat = GNNModel([
            GCNConv(FEATURES, 16, rng=np.random.default_rng(0)),
            GATConv(16, 5, activation="none", rng=np.random.default_rng(1)),
        ])
        for model in (_model("gat", 2), gcn_then_gat):
            memo = ClosureMemo(model, graph)
            _fill(memo, SEQUENCE)
            assert (2, 13) in _check_rows(memo)


@st.composite
def histories(draw):
    """A random graph (self loops, parallel edges and isolated vertices
    included), a model, and a batch sequence that revisits vertices."""
    num_vertices = draw(st.integers(2, 50))
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    num_edges = draw(st.integers(0, 4 * num_vertices))
    active = draw(st.integers(1, num_vertices))
    src = rng.integers(0, active, size=num_edges)
    dst = rng.integers(0, active, size=num_edges)
    features = rng.standard_normal((num_vertices, FEATURES)).astype(np.float32)
    graph = Graph(
        num_vertices, src, dst,
        edge_weight=rng.random(num_edges).astype(np.float32),
    )
    graph.features = features
    arch = draw(st.sampled_from(ARCHS + ("gat", "narrowing gcn")))
    model = _narrowing_gcn() if arch == "narrowing gcn" else _model(arch, draw(st.integers(1, 3)))
    pool = rng.integers(0, num_vertices, size=draw(st.integers(1, 8)))
    batches = draw(st.lists(
        st.lists(st.sampled_from(pool.tolist()), min_size=1, max_size=5),
        min_size=1, max_size=8,
    ))
    return graph, model, batches


@settings(max_examples=60, deadline=None)
@given(history=histories(), split=st.integers(0, 8))
def test_every_row_matches_the_reference(history, split):
    """Filled in two segments, as a stream served in parts is: every row
    matches, and the second fill leaves the first one's rows as they were."""
    graph, model, batches = history
    memo = ClosureMemo(model, graph)
    _fill(memo, batches[:split])
    before = _check_rows(memo)
    _fill(memo, batches[split:])
    after = _check_rows(memo)
    assert {k: after[k] for k in before} == before


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
        return [row.tobytes() for row in result.cache.peek(1, vertices)[0]]

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
    # The memo is host-side bookkeeping, not part of the served result.
    assert not any("memo" in key for key in fresh.summary())


# -- whole streams --------------------------------------------------------
def _stream_server(graph, model, **config):
    return InferenceServer(
        graph, model, ClusterSpec.ecs(4), chunk_partition(graph, 4),
        config=ServingConfig(**config),
    )


def _served_rows(result, vertices):
    """The bytes of each vertex's last served row (the modeled cache
    stores every computed row, whatever ``tau_s``)."""
    return {v: row.tobytes() for v, row in zip(vertices, result.cache.peek(1, vertices)[0])}


def _segments(server, requests, cuts):
    state = dict(timeline=None, ledger=None, predictions=None, inflight=[])
    for lo, hi in zip([0] + cuts, cuts + [len(requests)]):
        result = server.serve(requests[lo:hi], **state)
        state.update(
            timeline=result.timeline, ledger=result.ledger,
            predictions=result.predictions,
        )
    return result


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_zipf_stream_whole_and_in_segments(arch, layers):
    """A stream served in segments (as the ops harness serves one)
    answers, records and caches exactly what the whole stream does."""
    graph = _graph(10, num_vertices=90, num_edges=300)
    requests = generate_workload(
        WorkloadConfig(num_requests=400, rate_rps=2000.0, seed=layers),
        graph.num_vertices,
    )
    vertices = sorted({r.vertex for r in requests})
    whole = _stream_server(graph, _model(arch, layers), tau_s=0.002).serve(requests)

    # Segments end where no batch window spans the cut, so they batch
    # the stream as the whole call does.
    window = ServingConfig().batch_window_s
    cuts = [
        i for i in range(1, len(requests))
        if requests[i].arrival_s - requests[i - 1].arrival_s > window
    ]
    assert len(cuts) > 2
    server = _stream_server(graph, _model(arch, layers), tau_s=0.002)
    result = _segments(server, requests, cuts)
    assert result.predictions == whole.predictions
    assert result.ledger.records == whole.ledger.records
    # Each segment fills only the rows earlier ones did not, so a row
    # may sit in another fill block than in the whole stream's fill.
    np.testing.assert_allclose(
        *(np.stack(r.cache.peek(1, vertices)[0]) for r in (result, whole)), **TOLERANCE
    )
    _check_rows(server.closure_memo)


def _group_sizes(result):
    return [
        span.args["vertices"] for span in result.timeline.spans
        if span.name in ("compute", "fetch")
    ]


@pytest.mark.parametrize("arch", ARCHS + ("gat",))
def test_a_served_row_is_the_same_bytes_in_every_setting(arch):
    """Alone or in a batch, local, remote or auto, in one segment or
    two: a vertex's served row is its memoised top-layer row.  Servers
    that fill the same vertices fill the same blocks, so their rows are
    the same bytes too."""
    graph = _graph(12, num_vertices=90, num_edges=300)
    model = _model(arch, 2)
    requests = generate_workload(
        WorkloadConfig(num_requests=200, rate_rps=4000.0, seed=5),
        graph.num_vertices,
    )
    vertices = sorted({r.vertex for r in requests})
    alone = _stream_server(graph, model, batch_window_s=0.0, max_batch=1)
    runs = {"alone": alone.serve(requests)}
    assert set(_group_sizes(runs["alone"])) == {1}
    for mode in ("local", "remote", "auto"):
        runs[mode] = _stream_server(graph, model, mode=mode).serve(requests)
        assert max(_group_sizes(runs[mode])) > 1
    memo_rows = alone.closure_memo.rows(np.array(vertices))
    expected = {v: row.tobytes() for v, row in zip(vertices, memo_rows)}
    for name, result in runs.items():
        assert _served_rows(result, vertices) == expected, name
        assert result.predictions == runs["alone"].predictions, name
    for v, row in zip(vertices, memo_rows):
        reference = run_closure_forward(model, graph, khop_closure(graph, [v], 2)[0])[0]
        np.testing.assert_allclose(row, reference, **TOLERANCE)

    # Two segments on one server: a vertex computed in both is served
    # the row the first segment's fill made.
    half = len(requests) // 2
    server = _stream_server(graph, model)
    first = server.serve(requests[:half])
    both = sorted({r.vertex for r in requests[:half]} & {r.vertex for r in requests[half:]})
    assert both
    served_first = _served_rows(first, both)
    second = server.serve(
        requests[half:], timeline=first.timeline, ledger=first.ledger,
        predictions=first.predictions,
    )
    rows = server.closure_memo.rows(np.array(both))
    assert _served_rows(second, both) == served_first == {
        v: row.tobytes() for v, row in zip(both, rows)
    }
    assert second.predictions == runs["auto"].predictions


def test_tall_closures_are_filled():
    """The ``serving`` benchmark's shape: every requested closure has a
    layer of over a hundred rows, and each is memoised like any other."""
    rng = np.random.default_rng(11)
    n, fan_in = 200, 138
    src = np.concatenate([rng.choice(n, fan_in, replace=False) for _ in range(n)])
    dst = np.repeat(np.arange(n), fan_in)
    features = rng.standard_normal((n, FEATURES)).astype(np.float32)
    graph = Graph(
        n, src, dst, edge_weight=rng.random(len(dst)).astype(np.float32),
    )
    graph.features = features
    server = _stream_server(graph, _model("gcn", 2), tau_s=0.002)
    requests = generate_workload(
        WorkloadConfig(num_requests=60, rate_rps=4000.0, seed=0), n
    )
    server.serve(requests)
    rows = _check_rows(server.closure_memo)
    assert {v for l, v in rows if l == 2} == {r.vertex for r in requests}


@pytest.mark.parametrize("d_in,d_out", [(64, 64), (128, 64), (64, 16), (128, 16)])
def test_gemm_rows_do_not_depend_on_height(d_in, d_out):
    """Why seed-0 ``serve_social``'s served rows kept their bytes when
    answers became memo rows: at serving's shapes (float64 rows times a
    float32 weight; ``serve_social`` runs 64 -> 64 and 64 -> 16) a row
    of a fill block's product is the same bytes as in a batch's own
    product of 2 to 128 rows, at the block's start or at its end.  Where
    a BLAS breaks this, served rows stay within rounding of the closure
    forward, but row digests move, and this test says why by name."""
    rng = np.random.default_rng(d_in * 1000 + d_out)
    weight = rng.standard_normal((d_in, d_out)).astype(np.float32)
    block = rng.standard_normal((executor._FILL_ROWS, d_in))
    full = block @ weight
    for height in range(2, 129):
        assert (block[:height] @ weight).tobytes() == full[:height].tobytes(), height
        assert (block[-height:] @ weight).tobytes() == full[-height:].tobytes(), height
