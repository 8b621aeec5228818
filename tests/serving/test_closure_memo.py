"""Differential fence around the serving closure memo.

:class:`~repro.execution.executor.ClosureMemo` must return what
:func:`~repro.execution.executor.run_closure_forward` returns for the
same closure, byte for byte, whatever was filled and served before:
GCN / GIN / SAGE at 1-3 layers are filled and looked up, and a model
with a GAT layer runs the reference.  The memo's exactness rests on two BLAS
premises that it probes per weight (a row of a gemm does not depend on
the matmul's height or on the row's position in it; a stacked one-row
product gives each row its own one-row product's bytes); weights that
break them on purpose are exercised here, and both premises are pinned
by name at serving's shapes.
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


def _closure(memo, v):
    return khop_closure(memo.graph, [v], memo.model.num_layers)[0]


def _fill(memo, batches):
    """What ``serve()`` does first: fill every requested vertex."""
    memo.fill([_closure(memo, v) for v in sorted({v for b in batches for v in b})])


def _serve(memo, seeds):
    """One batch through the memo, checked against the reference."""
    vertex_layers, _ = khop_closure(memo.graph, seeds, memo.model.num_layers)
    got = memo.forward(vertex_layers)
    expected = run_closure_forward(memo.model, memo.graph, vertex_layers)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes(), seeds
    return got


# v alone, then inside groups, then alone again: one-seed and gemm top
# rows of the same vertex, and groups that overlap earlier ones in part.
SEQUENCE = [[3], [3, 7], [7], [3, 7, 11], [11], [3], [2, 3, 5, 7, 11, 13], [3, 7]]


class TestMatchesReference:
    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_fused_reducer_models_are_memoised(self, arch, layers):
        memo = ClosureMemo(_model(arch, layers), _graph(0))
        _fill(memo, SEQUENCE)
        for seeds in SEQUENCE:
            _serve(memo, seeds)
        assert memo.bypassed == 0
        # Every row is looked up, the top's included.
        assert memo.rows_memoised == memo.rows_served

    @pytest.mark.parametrize("arch", ARCHS)
    def test_one_unknown_row(self, arch, monkeypatch):
        """A fill whose layer below the top has exactly one unknown row
        runs its vertex half over the row twice, and still matches.  A
        top that multiplies first (GCN's 16 -> 5) runs its product over
        the new top row's input rows instead."""
        graph = _graph(2)
        memo = ClosureMemo(_model(arch, 2), graph)
        calls = []
        gemm_rows = executor._gemm_rows

        def spy(fn, height, *arrays):
            calls.append((fn.__self__, len(arrays[-1])))
            return gemm_rows(fn, height, *arrays)

        monkeypatch.setattr(executor, "_gemm_rows", spy)
        _fill(memo, [[3, 7, 11]])
        # A seed whose closure adds exactly one unknown layer-1 row.
        known = set(khop_closure(graph, [3, 7, 11], 2)[0][1].tolist())
        lone = next(
            v for v in range(graph.num_vertices)
            if len(set(_closure(memo, v)[1].tolist()) - known) == 1
            and len(_closure(memo, v)[1]) > 1
        )
        calls.clear()
        _fill(memo, [[lone]])
        # Its one new layer-1 row, then its own gemm top row: both alone,
        # unless the top's product runs over its inputs.
        top = memo.model.layer(2)
        top_rows = len(_closure(memo, lone)[1]) if top.multiplies_first else 1
        assert top.multiplies_first == (arch == "gcn")
        assert calls == [(memo.model.layer(1), 1), (top, top_rows)]
        _serve(memo, [lone, 3])
        _serve(memo, [lone])  # alone: the one-row-product top row
        assert memo.bypassed == 0

    @pytest.mark.parametrize("arch", ARCHS)
    def test_isolated_seed_bypasses(self, arch):
        graph = _graph(3, isolated=1)
        isolated = graph.num_vertices - 1
        memo = ClosureMemo(_model(arch, 2), graph)
        _fill(memo, [[isolated]])  # its layer below the top has one row
        assert memo._stores is None  # nothing probed or allocated
        _serve(memo, [isolated])
        _fill(memo, [[isolated, 3]])
        _serve(memo, [isolated, 3])  # a batch holding it bypasses too
        assert memo.bypassed == 2
        _serve(memo, [3])
        assert memo.bypassed == 2
        assert not memo._filled[isolated] and memo._filled[3]
        # A one-layer model has no layer below the top: everything is kept.
        one_layer = ClosureMemo(_model(arch, 1), graph)
        _fill(one_layer, [[isolated, 3]])
        _serve(one_layer, [isolated])
        _serve(one_layer, [isolated, 3])
        assert one_layer.bypassed == 0
        assert one_layer.rows_memoised == one_layer.rows_served == [3]

    def test_a_layer_below_the_top_that_multiplies_first(self):
        model = _narrowing_gcn()
        assert [layer.multiplies_first for layer in model.layers] == [False, True, True]
        memo = ClosureMemo(model, _graph(0))
        _fill(memo, SEQUENCE)
        for seeds in SEQUENCE:
            _serve(memo, seeds)
        assert memo.bypassed == 0
        assert memo.rows_memoised == memo.rows_served
        assert len(memo._stores) == 3  # no one-row-product store

    def test_layers_without_a_fused_reducer_bypass(self):
        graph = _graph(4)
        # Attention on top of a fused layer: one unfused layer is enough.
        gcn_then_gat = GNNModel([
            GCNConv(FEATURES, 16, rng=np.random.default_rng(0)),
            GATConv(16, 5, activation="none", rng=np.random.default_rng(1)),
        ])
        for model in (_model("gat", 2), gcn_then_gat):
            memo = ClosureMemo(model, graph)
            _fill(memo, SEQUENCE)
            for seeds in SEQUENCE:
                _serve(memo, seeds)
            assert memo.bypassed == len(SEQUENCE)
            assert memo.rows_memoised == [0, 0]
            assert memo._stores is None

    def test_counters(self):
        graph = _graph(5)
        memo = ClosureMemo(_model("gcn", 2), graph)
        # 13 is never filled: the one batch requesting it bypasses.
        _fill(memo, [[2, 3, 5, 7, 11]])
        served = [0, 0]
        memoised = [0, 0]
        for seeds in SEQUENCE:
            vertex_layers, _ = khop_closure(graph, seeds, 2)
            heights = [len(vertex_layers[1]), len(vertex_layers[0])]
            served = [a + b for a, b in zip(served, heights)]
            if 13 not in seeds:
                memoised = [a + b for a, b in zip(memoised, heights)]
            _serve(memo, seeds)
        assert memo.rows_served == served
        assert memo.rows_memoised == memoised
        assert memo.bypassed == 1


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
    arch = draw(st.sampled_from(ARCHS + ("narrowing gcn",)))
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
    """Filled in two segments, as a stream served in parts is; a batch
    before the second fill bypasses for its unfilled seeds."""
    graph, model, batches = history
    memo = ClosureMemo(model, graph)
    _fill(memo, batches[:split])
    for seeds in batches[:split]:
        _serve(memo, seeds)
    _fill(memo, batches[split:])
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
    assert server.closure_memo.rows_memoised[0] > 0
    # The memo is host-side bookkeeping, not part of the served result.
    assert not any("memo" in key for key in fresh.summary())


class _TallProductsDiffer(np.ndarray):
    """A weight whose products taller than 3 rows round differently, as
    under a BLAS that changes path at that height (a stacked one-row
    product is one row tall)."""

    exact_to = 3

    def __rmatmul__(self, rows):
        out = rows @ self.view(np.ndarray)
        return out * 1.5 if rows.shape[-2] > self.exact_to else out


class _TallerProductsDiffer(_TallProductsDiffer):
    """The same at 13 rows: a top that multiplies first runs its product
    over its input rows, which outnumber the seeds."""

    exact_to = 13


class _LastRowDiffers(np.ndarray):
    """A weight whose products round their last row differently, as
    under a BLAS whose path depends on a row's position."""

    def __rmatmul__(self, rows):
        out = rows @ self.view(np.ndarray)
        out[-1] *= 1.5
        return out


def _count_bypasses(memo, batches):
    """How many of ``batches`` the memo's rule sends to the reference: a
    seed whose own closure has a layer below the top one row tall or a
    product below the top taller than its probed height, or a union
    closure with such a product.  A layer's product runs over its own
    rows, or over its input rows where it multiplies first."""
    L = memo.model.num_layers

    def too_tall(vertex_layers, lowest):
        rows = [len(vertex_layers[L - l]) for l in range(L + 1)]  # per layer
        return any(
            rows[l] < lowest
            or rows[l - 1 if memo.model.layer(l).multiplies_first else l] > top
            for l, top in zip(range(1, L), memo._exact_to)
        )

    return sum(
        too_tall(khop_closure(memo.graph, seeds, L)[0], 1)
        or any(too_tall(_closure(memo, v), 2) for v in seeds)
        for seeds in batches
    )


def _break_last_weight(model, l, weight_cls):
    weights = [p for p in model.layer(l).parameters() if p.data.ndim == 2]
    weights[-1].data = weights[-1].data.view(weight_cls)


class TestProbedHeights:
    """The memo keeps a seed only where every weight of each layer below
    the top was probed row-exact at its closure's heights, and serves a
    batch only where the union's heights were probed too; elsewhere it
    bypasses.  The top's probed height decides which batches look up
    their top rows."""

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("weight_cls,exact_to", [
        (_TallProductsDiffer, 3),  # height-dependent
        (_LastRowDiffers, 1),  # position-dependent
    ])
    def test_weights_that_are_not_row_exact_bypass(self, arch, weight_cls, exact_to):
        model = _model(arch, 2)
        _break_last_weight(model, 1, weight_cls)
        memo = ClosureMemo(model, _graph(7, num_edges=60))
        _fill(memo, SEQUENCE)
        for seeds in SEQUENCE:
            _serve(memo, seeds)
        assert memo._exact_to[0] == exact_to
        assert memo.bypassed == _count_bypasses(memo, SEQUENCE) > 0
        if exact_to > 1:  # small closures are still memoised
            assert memo.bypassed < len(SEQUENCE)
            assert memo.rows_memoised[0] > 0

    @pytest.mark.parametrize("arch", ARCHS)
    def test_top_weight_that_is_not_row_exact(self, arch):
        """A top weight exact to a few rows: batches whose top product is
        no taller look their top rows up, taller ones run the top layer,
        and all match.  The top's product runs over the seeds, or over
        its input rows where it multiplies first (GCN's 16 -> 5)."""
        model = _model(arch, 2)
        top_first = model.layer(2).multiplies_first
        assert top_first == (arch == "gcn")
        weight_cls = _TallerProductsDiffer if top_first else _TallProductsDiffer
        _break_last_weight(model, 2, weight_cls)
        memo = ClosureMemo(model, _graph(0))
        _fill(memo, SEQUENCE)
        for seeds in SEQUENCE:
            _serve(memo, seeds)
        assert memo._exact_to[1] == weight_cls.exact_to
        assert memo._stacks == (not top_first)  # no one-row products to stack
        assert memo.bypassed == 0
        assert memo.rows_memoised[0] == memo.rows_served[0]

        def top_product(seeds):
            return len(khop_closure(memo.graph, seeds, 2)[0][1 if top_first else 0])

        looked_up = [b for b in SEQUENCE if top_product(b) <= weight_cls.exact_to]
        assert 0 < memo.rows_memoised[1] == sum(len(b) for b in looked_up)
        assert memo.rows_memoised[1] < memo.rows_served[1]
        # Where stacking is not exact either, one-seed batches run it too.
        _break_last_weight(model, 2, _LastRowDiffers)
        memo = ClosureMemo(model, _graph(0))
        _fill(memo, SEQUENCE)
        for seeds in SEQUENCE:
            _serve(memo, seeds)
        assert memo._exact_to[1] == 1 and not memo._stacks
        assert memo.bypassed == 0
        assert memo.rows_memoised[1] == 0

    def test_a_product_over_input_rows_that_is_not_row_exact(self):
        """A layer below the top that multiplies first, with a weight
        exact to 13 rows: its product runs over its input rows (the
        layer-1 set), so the rule reads their height, not its own."""
        model = _narrowing_gcn()
        _break_last_weight(model, 2, _TallerProductsDiffer)
        memo = ClosureMemo(model, _graph(7, num_edges=60))
        _fill(memo, SEQUENCE)
        for seeds in SEQUENCE:
            _serve(memo, seeds)
        assert memo._exact_to[1] == 13
        assert 0 < memo.bypassed == _count_bypasses(memo, SEQUENCE) < len(SEQUENCE)
        assert memo.rows_memoised[1] > 0

    def test_reddit_dimensions(self):
        """``repro serve --dataset reddit --hidden 128`` runs a 602 -> 128
        layer below the top, where OpenBLAS changes path within a few
        rows: every batch is either memoised and equal, or bypassed."""
        graph = _graph(8, num_vertices=120, num_edges=400)
        rng = np.random.default_rng(8)
        graph.features = rng.standard_normal((120, 602)).astype(np.float32)
        memo = ClosureMemo(GNNModel.build("gcn", 602, 128, 41, num_layers=2, seed=1), graph)
        batches = SEQUENCE + [[v, v + 1, v + 2, v + 3] for v in range(0, 40, 4)]
        _fill(memo, batches)
        for seeds in batches:
            _serve(memo, seeds)
        assert memo.bypassed == _count_bypasses(memo, batches)

    def test_closures_taller_than_the_probe_bypass(self, monkeypatch):
        monkeypatch.setattr(executor, "_PROBED_HEIGHT", 6)
        memo = ClosureMemo(_model("gcn", 2), _graph(9))
        tall = [v for v in sorted(set(sum(SEQUENCE, []))) if len(_closure(memo, v)[1]) > 6]
        _fill(memo, [tall])  # too tall: nothing probed or allocated
        _serve(memo, tall)
        assert memo.bypassed == 1
        assert memo._stores is None
        memo.bypassed = 0
        _fill(memo, SEQUENCE)
        for seeds in SEQUENCE:
            _serve(memo, seeds)
        assert memo._exact_to == [6, 6]
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


@pytest.mark.parametrize("d_in,d_out", [(64, 16), (64, 64), (602, 128), (64, 41)])
def test_stacked_one_row_products_match_single_rows(d_in, d_out):
    """The premise behind one-seed batches' top rows: a stacked
    ``(n, 1, d) @ weight`` gives each row the bytes of its own one-row
    product (float64 rows, float32 weight), so the fill makes every
    seed's one-row top row in one call.  Where a BLAS breaks it the
    memo runs a one-seed batch's top layer and stays exact, but this
    test fails by name."""
    rng = np.random.default_rng(d_in * 1000 + d_out)
    weight = rng.standard_normal((d_in, d_out)).astype(np.float32)
    rows = rng.standard_normal((executor._PROBED_HEIGHT, 1, d_in))
    stacked = rows @ weight
    for i, row in enumerate(rows):
        assert (row.copy() @ weight).tobytes() == stacked[i].tobytes(), i
    assert executor._stacks_rows(weight)


# -- whole streams --------------------------------------------------------
def _stream_server(graph, arch, layers):
    cluster = ClusterSpec.ecs(4)
    return InferenceServer(
        graph, _model(arch, layers), cluster, chunk_partition(graph, 4),
        config=ServingConfig(tau_s=0.002),
    )


def _checked_forwards(monkeypatch):
    """Compare every batch the memo answers with the reference, and
    every one-seed row it hands out in bulk with that seed's forward.
    Returns the seed count of each (1 per bulk one-seed row)."""
    forwards = []
    forward = ClosureMemo.forward
    seed_rows = ClosureMemo.seed_rows

    def checked(memo, vertex_layers):
        got = forward(memo, vertex_layers)
        expected = run_closure_forward(memo.model, memo.graph, vertex_layers)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        forwards.append(len(vertex_layers[0]))
        return got

    def checked_seed_rows(memo, seeds, heights):
        kept, rows = seed_rows(memo, seeds, heights)
        L = memo.model.num_layers
        for seed, row in zip(np.asarray(seeds)[kept].tolist(), rows):
            closure = khop_closure(memo.graph, [seed], L)[0]
            expected = run_closure_forward(memo.model, memo.graph, closure)
            assert row.tobytes() == expected[0].tobytes()
            forwards.append(1)
        return kept, rows

    monkeypatch.setattr(ClosureMemo, "forward", checked)
    monkeypatch.setattr(ClosureMemo, "seed_rows", checked_seed_rows)
    return forwards


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_zipf_stream_whole_and_in_segments(arch, layers, monkeypatch):
    """Every batch of a Zipf stream equals the closure forward, and a
    stream served in segments (as the ops harness serves one) answers
    and records exactly what the whole stream does."""
    forwards = _checked_forwards(monkeypatch)
    graph = _graph(10, num_vertices=90, num_edges=300)
    requests = generate_workload(
        WorkloadConfig(num_requests=400, rate_rps=2000.0, seed=layers),
        graph.num_vertices,
    )
    whole_server = _stream_server(graph, arch, layers)
    whole = whole_server.serve(requests)
    assert 1 in forwards and max(forwards) > 1  # both top-row forms ran
    assert whole_server.closure_memo.bypassed == 0

    # Segments end where no batch window spans the cut, so they batch
    # the stream as the whole call does.
    window = whole_server.config.batch_window_s
    cuts = [
        i for i in range(1, len(requests))
        if requests[i].arrival_s - requests[i - 1].arrival_s > window
    ]
    assert len(cuts) > 2
    server = _stream_server(graph, arch, layers)
    state = dict(timeline=None, ledger=None, predictions=None, inflight=[])
    for lo, hi in zip([0] + cuts, cuts + [len(requests)]):
        result = server.serve(requests[lo:hi], **state)
        state.update(
            timeline=result.timeline, ledger=result.ledger,
            predictions=result.predictions,
        )
    assert result.predictions == whole.predictions
    assert result.ledger.records == whole.ledger.records
    assert server.closure_memo.rows_served == whole_server.closure_memo.rows_served


def test_closures_taller_than_the_probe_fill_nothing(monkeypatch):
    """The ``serving`` benchmark's shape: every requested closure is taller than
    the probed height, so the fill writes no row and every batch runs
    the reference."""
    forwards = _checked_forwards(monkeypatch)
    rng = np.random.default_rng(11)
    n, fan_in = 200, executor._PROBED_HEIGHT + 10
    src = np.concatenate([rng.choice(n, fan_in, replace=False) for _ in range(n)])
    dst = np.repeat(np.arange(n), fan_in)
    features = rng.standard_normal((n, FEATURES)).astype(np.float32)
    graph = Graph(
        n, src, dst, edge_weight=rng.random(len(dst)).astype(np.float32),
    )
    graph.features = features
    server = _stream_server(graph, "gcn", 2)
    requests = generate_workload(
        WorkloadConfig(num_requests=60, rate_rps=4000.0, seed=0), n
    )
    server.serve(requests)
    memo = server.closure_memo
    assert memo._stores is None
    assert memo.bypassed == len(forwards) > 0
    assert memo.rows_memoised == [0, 0]
