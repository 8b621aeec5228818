"""The compiled input route against the per-epoch derivation it replaced.

``LayerExecutor.gather_inputs`` / ``route_input_grads`` used to work out
who produced each input row on every call, from dense ``|V|``-sized
``pos_in_compute`` tables, ``engine.assignment`` and an ``np.unique``
over the owners.  That derivation is kept here as the reference: the
executor, following the :class:`InputRoute` compiled once by
``compile_program``, must gather the same rows and post the same
gradient blocks in the same order, for every strategy -- including the
one case where the value is read somewhere else than the exchange
charges it (a mirror-exchange layer above a tensor-parallel one).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache import CacheConfig
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.graph import generators
from repro.training.prep import prepare_graph

# name -> (registered engine, engine kwargs, forced tp_layers or None)
CASES = {
    "depcache": ("depcache", {}, None),
    "depcomm": ("depcomm", {}, None),
    "depcomm+cache": ("depcomm", {"cache_config": CacheConfig(tau=3)}, None),
    "hybrid": ("hybrid", {"force_cache_fraction": 0.5}, None),
    # A mirror-exchange layer above a tensor-parallel one, stale rows
    # included: the exchange lists rows the executor reads in place.
    "hybrid4": (
        "hybrid4", {"cache_config": CacheConfig(tau=3)}, [False, True, False]
    ),
    "tp": ("tp", {}, None),
    "roc": ("roc", {}, None),
}


def build(case, num_vertices=96, workers=4, seed=0, hidden=8):
    name, kwargs, tp_layers = CASES[case]
    g = generators.scaled_social(
        num_vertices, avg_degree=6.0, num_communities=4, hub_exponent=1.1,
        seed=seed,
    )
    generators.attach_features(g, 12, 4, seed=seed + 1, class_signal=0.6)
    graph = prepare_graph(g, "gcn")
    model = GNNModel.build(
        "gcn", graph.feature_dim, hidden, graph.num_classes, num_layers=3,
        seed=0,
    )
    engine = make_engine(name, graph, model, ClusterSpec.ecs(workers), **kwargs)
    if tp_layers is not None:
        engine._choose_tp_layers = lambda: list(tp_layers)
    return engine, engine.plan()


def dense_tables(engine, plan, l):
    """``pos[w][v]`` = vertex ``v``'s row in worker ``w``'s layer-``l``
    output, -1 if ``w`` does not compute it (the deleted
    ``Program.pos_in_compute[l - 1]``)."""
    tables = []
    for w in range(engine.cluster.num_workers):
        ids = plan.blocks[l - 1][w].compute_vertices
        pos = np.full(engine.graph.num_vertices, -1, dtype=np.int64)
        pos[ids] = np.arange(len(ids))
        tables.append(pos)
    return tables


def reference_gather(engine, plan, h_values, l, w):
    """The parent commit's ``gather_inputs`` body (cache override aside)."""
    ids = plan.blocks[l - 1][w].input_vertices
    pos = dense_tables(engine, plan, l - 1)
    rows = np.empty((len(ids), engine.dims[l - 1]), dtype=np.float32)
    pos_local = pos[w][ids]
    local = pos_local >= 0
    rows[local] = h_values[l - 1][w][pos_local[local]]
    remote_ids = ids[~local]
    owners = engine.assignment[remote_ids]
    for j in np.unique(owners):
        sel = owners == j
        theirs = pos[j][remote_ids[sel]]
        assert (theirs >= 0).all()
        rows[np.where(~local)[0][sel]] = h_values[l - 1][j][theirs]
    return rows


def reference_posts(engine, plan, l, w, grad_rows, mask_stale):
    """The parent commit's ``route_input_grads``: the ``(worker,
    positions, rows)`` blocks it handed to ``accumulate``, in order."""
    ids = plan.blocks[l - 1][w].input_vertices
    pos = dense_tables(engine, plan, l - 1)
    pos_local = pos[w][ids]
    local = pos_local >= 0
    posts = [(w, pos_local[local], grad_rows[local])]
    push = ~local
    srows = engine.program_.layers[l - 1].workers[w].stale_rows
    if mask_stale and srows is not None and len(srows):
        push = push.copy()
        push[srows] = False
    remote_ids = ids[push]
    remote_rows = grad_rows[push]
    owners = engine.assignment[remote_ids]
    for j in np.unique(owners):
        sel = owners == j
        posts.append((int(j), pos[j][remote_ids[sel]], remote_rows[sel]))
    return [p for p in posts if len(p[1])]


def fabricated_outputs(engine, plan, rng):
    """Random per-worker layer outputs, aliased across the workers of a
    tensor-parallel layer exactly as ``LayerExecutor.forward`` leaves
    them."""
    m = engine.cluster.num_workers
    h_values = [None]
    for l in range(1, engine.num_layers + 1):
        per_worker = []
        for w in range(m):
            if plan.is_tp_layer(l) and w > 0:
                per_worker.append(per_worker[0])
                continue
            shape = (plan.blocks[l - 1][w].num_outputs, engine.dims[l])
            per_worker.append(rng.standard_normal(shape).astype(np.float32))
        h_values.append(per_worker)
    return h_values


def gathered_blocks(engine, plan):
    """``(l, w)`` of every block the executor gathers from a layer below."""
    for l in range(2, engine.num_layers + 1):
        for w in range(engine.cluster.num_workers):
            if plan.is_tp_layer(l) and w > 0:
                continue
            yield l, w


def check_engine(engine, plan, check_layer_program, bytes_balance, seed):
    rng = np.random.default_rng(seed)
    m = engine.cluster.num_workers
    layers = engine.program_.layers
    h_values = fabricated_outputs(engine, plan, rng)
    for lp, below in zip(layers, [None] + layers):
        check_layer_program(lp, bytes_balance=bytes_balance, below=below)
    for l, w in gathered_blocks(engine, plan):
        block = plan.blocks[l - 1][w]
        wp = layers[l - 1].workers[w]
        got = engine.executor.gather_inputs(plan, h_values, l, w, block)
        want = reference_gather(engine, plan, h_values, l, w)
        assert got.tobytes() == want.tobytes()

        # Per-pair rows are the MirrorExchange lists, fetch and refresh
        # merged -- except above a TP layer, where nothing is remote.
        ids = block.input_vertices
        for j in range(m):
            if j == w or plan.is_tp_layer(l) or plan.is_tp_layer(l - 1):
                continue
            read = ids[wp.route.buffer.source_rows(j)]
            listed = np.sort(np.concatenate([
                ex.recv_ids.get((j, w), np.empty(0, dtype=np.int64))
                for ex in (plan.exchanges[l - 1], plan.refresh_exchanges[l - 1])
            ]))
            assert np.array_equal(read, listed)
            assert len(read) == (
                plan.exchanges[l - 1].counts[j, w]
                + plan.refresh_exchanges[l - 1].counts[j, w]
            )

        grad_rows = rng.standard_normal(got.shape)
        for refreshing in (True, False):
            engine._cache_refreshing = refreshing
            posts = []
            engine.executor.accumulate = (
                lambda plan, acc, layer_idx, worker, positions, rows:
                posts.append((worker, positions, rows))
            )
            try:
                engine.executor.route_input_grads(plan, None, l, w, grad_rows)
            finally:
                del engine.executor.accumulate
            # ``accumulate`` returns at once on an empty block.
            posts = [p for p in posts if len(p[1])]
            want = reference_posts(
                engine, plan, l, w, grad_rows,
                mask_stale=engine._cache_active and not refreshing,
            )
            assert [p[0] for p in posts] == [p[0] for p in want]
            for (_, pos, rows), (_, ref_pos, ref_rows) in zip(posts, want):
                assert np.array_equal(pos, ref_pos)
                assert rows.tobytes() == ref_rows.tobytes()
                assert rows.flags.c_contiguous


@pytest.mark.parametrize("case", list(CASES))
def test_route_reproduces_the_dense_table_gather(case, check_layer_program):
    engine, plan = build(case)
    check_engine(engine, plan, check_layer_program, case != "roc", seed=0)


@settings(
    max_examples=12, deadline=None,
    # The fixture is a stateless function: nothing to reset per example.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    case=st.sampled_from(list(CASES)),
    num_vertices=st.integers(24, 80),
    workers=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_property_route_equals_dense_gather(
    check_layer_program, case, num_vertices, workers, seed
):
    engine, plan = build(case, num_vertices, workers, seed)
    check_engine(engine, plan, check_layer_program, case != "roc", seed)


def test_mirror_above_tp_reads_in_place_but_charges_the_exchange():
    """The one place the route and the exchange disagree, pinned."""
    engine, plan = build("hybrid4")
    assert list(plan.tp_layers) == [False, True, False]
    top = engine.program_.layers[2]
    assert plan.exchanges[2].total_vertices > 0
    assert plan.total_stale_vertices() > 0
    for wp in top.workers:
        assert wp.route.sources == (wp.worker,)
    # Layer 2 is tensor-parallel above a mirror layer: worker 0 gathers
    # the full graph's rows from their owners, the others alias it.
    tp = engine.program_.layers[1]
    assert set(tp.workers[0].route.sources) == set(range(4))
    assert all(wp.route is None for wp in tp.workers[1:])


def test_unproduced_input_row_fails_at_compile_time():
    """What used to raise from inside an epoch ("owner did not compute a
    vertex it owns") now raises from ``compile_program``."""
    from repro.core.blocks import build_block
    from repro.execution import compile_program

    engine, plan = build("depcomm")
    owned = engine.partitioning.part(1)
    plan.blocks[0][1] = build_block(engine.graph, owned[1:], 1)
    message = r"worker 1 owns input vertex \d+ but does not compute it"
    with pytest.raises(RuntimeError, match=message):
        compile_program(engine, plan)
