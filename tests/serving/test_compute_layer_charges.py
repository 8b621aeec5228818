"""Fences around serving from the compute layers alone.

The planner keeps each closure's L compute layers and no edges, so the
server derives what it used to read off the full closure (the walk's
``hops + 1`` vertex layers and ``hops`` edge layers):

- a local group's GPU seconds: per layer, the compute set's size and
  the sum of its in-degrees, which is the edge layer's size;
- a remote group's exchanges: each layer's edges are the compute set's
  CSC runs, and the per-owner counts and unique (source, destination
  owner) volumes do not depend on their order;
- the memo's layer-1 rows of a fused-reducer layer: aggregated straight
  from ``graph.features`` by global source id with float64 weights,
  instead of over a block of float64 input rows.

Each is checked against the derivation it replaced, kept here as the
reference, over random graphs, partitions, groups, 1-3 layers, every
planner mode, with and without a crashed worker: charged values by
``float.hex()`` and arrays by their bytes.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import NET_RECV, Timeline
from repro.core.blocks import closure_block
from repro.core.model import GNNModel
from repro.execution.executor import ClosureMemo
from repro.graph.graph import Graph
from repro.graph.khop import khop_closure
from repro.partition.chunk import chunk_partition
from repro.resilience.faults import FaultSchedule, WorkerCrashFault
from repro.resilience.injector import FaultInjector
from repro.serving import InferenceServer, ServingConfig
from repro.serving import server as server_module
from repro.tensor import scatter
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.ranges import sorted_unique

FEATURES = 5


@st.composite
def graphs(draw):
    """Random COO graphs: isolated vertices, self loops and parallel
    edges included, from sparse to dense, with one hub."""
    num_vertices = draw(st.integers(1, 80))
    num_edges = draw(st.integers(0, 5 * num_vertices))
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    active = draw(st.integers(1, num_vertices))
    src = rng.integers(0, active, size=num_edges)
    dst = rng.integers(0, active, size=num_edges)
    loops = rng.random(num_edges) < 0.1
    dst[loops] = src[loops]
    hub = int(rng.integers(0, num_vertices))
    spokes = rng.integers(0, num_vertices, size=max(1, num_vertices // 3))
    src = np.concatenate([src, spokes])
    dst = np.concatenate([dst, np.full(len(spokes), hub)])
    graph = Graph(
        num_vertices, src, dst, edge_weight=rng.random(len(src)).astype(np.float32),
    )
    graph.features = rng.standard_normal((num_vertices, FEATURES)).astype(np.float32)
    return graph


@st.composite
def cases(draw):
    graph = draw(graphs())
    layers = draw(st.integers(1, 3))
    workers = min(draw(st.integers(1, 4)), graph.num_vertices)
    crashed = draw(st.integers(0, workers - 1)) if workers > 1 and draw(st.booleans()) else None
    group = draw(st.lists(
        st.integers(0, graph.num_vertices - 1), min_size=1, max_size=6, unique=True,
    ))
    return graph, layers, workers, crashed, group


def _server(graph, layers, workers, crashed, mode, arch="gcn"):
    model = GNNModel.build(arch, FEATURES, 6, 3, num_layers=layers, seed=1)
    faults = (
        FaultSchedule([WorkerCrashFault(worker=crashed, at_time=0.0)])
        if crashed is not None
        else None
    )
    return InferenceServer(
        graph, model, ClusterSpec.ecs(workers), chunk_partition(graph, workers),
        config=ServingConfig(mode=mode), faults=faults,
    )


def reference_local_gpu_s(server, vertex_layers, edge_layers):
    """``_local_gpu_s`` before: the sizes of the full closure's layers."""
    L = server.num_layers
    gpu_s = 0.0
    for l in range(1, L + 1):
        gpu_s += server.constants.vertex_cost(l) * len(vertex_layers[L - l])
        gpu_s += server.constants.edge_cost(l) * len(edge_layers[L - l])
    return gpu_s


def reference_charge_remote(
    server, timeline, network, injector, coordinator, alive, dead,
    vertex_layers, edge_layers,
):
    """``_charge_remote`` before: each layer's edges read off the full
    closure's edge layer, sorted by edge id."""
    L = server.num_layers
    m = server.cluster.num_workers
    assignment = server.partitioning.assignment
    dispatch = timeline.now(coordinator)
    for w in alive:
        timeline.advance_at_least_until(w, dispatch)
    total_bytes = 0.0

    def live_owner(workers):
        if not dead:
            return workers
        out = workers.copy()
        for d in dead:
            out[out == d] = coordinator
        return out

    for l in range(1, L + 1):
        compute = vertex_layers[L - l]
        edges = edge_layers[L - l]
        v_owner = live_owner(assignment[compute])
        e_owner = live_owner(assignment[server.graph.dst[edges]])
        local_compute = (
            server.constants.vertex_cost(l)
            * np.bincount(v_owner, minlength=m).astype(np.float64)
            + server.constants.edge_cost(l)
            * np.bincount(e_owner, minlength=m).astype(np.float64)
        )
        src = server.graph.src[edges]
        src_owner = live_owner(assignment[src])
        dst_owner = e_owner
        crossing = src_owner != dst_owner
        volumes = np.zeros((m, m))
        if crossing.any():
            pair_keys = src[crossing] * np.int64(m) + dst_owner[crossing]
            _, first = np.unique(pair_keys, return_index=True)
            np.add.at(
                volumes,
                (src_owner[crossing][first], dst_owner[crossing][first]),
                float(server.dims[l - 1] * 4),
            )
        stats = server_module.run_exchange(
            timeline, network, volumes,
            local_compute=local_compute,
            options=server_module.COMM,
            barrier=True,
            bytes_per_message=float(server.dims[l - 1] * 4),
            faults=injector,
            participants=alive,
        )
        total_bytes += stats.total_bytes
    seeds = vertex_layers[0]
    seed_owner = live_owner(assignment[seeds])
    gather_bytes = int((seed_owner != coordinator).sum()) * server.dims[L] * 4
    if gather_bytes:
        timeline.advance(
            coordinator, NET_RECV, network.wire_time(gather_bytes),
            num_bytes=gather_bytes,
        )
        total_bytes += gather_bytes
    return total_bytes


def _charged(server, charge, *layers):
    """Run one remote charge on a fresh timeline and injector: the bytes
    it returns, what it hands each exchange, and the clock it leaves."""
    m = server.cluster.num_workers
    timeline = Timeline(m)
    dead = server._dead_workers(0.0)
    alive = [w for w in range(m) if w not in dead]
    coordinator = server._fallback(server.partitioning.owner(int(layers[0][0][0])), dead, m)
    injector = FaultInjector(server.faults) if server.faults else None
    exchanges = []
    real = server_module.run_exchange

    def recording(timeline, network, volumes, local_compute, **kwargs):
        exchanges.append((volumes.tobytes(), local_compute.tobytes(), kwargs["participants"]))
        return real(timeline, network, volumes, local_compute=local_compute, **kwargs)

    with mock.patch.object(server_module, "run_exchange", recording):
        total = charge(
            timeline, server.cluster.network, injector, coordinator, alive, dead, *layers
        )
    clock = (
        timeline.clocks.tobytes(),
        {kind: totals.tobytes() for kind, totals in timeline.totals.items()},
        repr(timeline.intervals),
    )
    return float(total).hex(), exchanges, clock


@contextmanager
def _rounds_to_the_last_edge():
    saved = scatter.MIN_ELEMENTS, scatter.ROUND_ELEMENTS
    scatter.MIN_ELEMENTS, scatter.ROUND_ELEMENTS = 0, 1
    try:
        yield
    finally:
        scatter.MIN_ELEMENTS, scatter.ROUND_ELEMENTS = saved


def _block_path_rows(layer, graph, compute):
    """Layer-1 rows as the memo computed them before: one block over the
    float64 copies of the closure's input rows."""
    in_edges = graph.csc.select(compute)
    inputs = sorted_unique(np.concatenate([in_edges[1], compute]))
    x = Tensor(graph.features[inputs].astype(np.float64))
    return layer.forward(closure_block(graph, compute, inputs, in_edges), x).data


class TestCharges:
    @settings(max_examples=120, deadline=None)
    @given(case=cases(), mode=st.sampled_from(["auto", "local", "remote"]))
    def test_charges_equal_the_full_closure_derivation(self, case, mode):
        graph, layers, workers, crashed, group = case
        server = _server(graph, layers, workers, crashed, mode)
        plan = server.planner.plan_batch(group)
        if mode != "auto":
            assert plan.mode == mode
        vertex_layers, edge_layers = khop_closure(graph, group, layers)

        expected = reference_local_gpu_s(server, vertex_layers, edge_layers)
        assert server._local_gpu_s(plan.vertex_layers).hex() == expected.hex()
        if len(group) == 1:
            # A one-vertex group charges its profile's local price.
            profile = server.planner.profile(group[0])
            assert profile.local_cost_s.hex() == expected.hex()

        got = _charged(server, server._charge_remote, plan.vertex_layers)
        want = _charged(
            server,
            lambda *args: reference_charge_remote(server, *args),
            vertex_layers, edge_layers,
        )
        assert got == want


class TestLayerOneFill:
    @settings(max_examples=80, deadline=None)
    @given(
        graph=graphs(),
        arch=st.sampled_from(["gcn", "gin", "sage"]),
        layers=st.integers(1, 3),
        rounds=st.booleans(),
        data=st.data(),
    )
    def test_global_id_rows_equal_the_block_path(self, graph, arch, layers, rounds, data):
        group = data.draw(st.lists(
            st.integers(0, graph.num_vertices - 1), min_size=1, max_size=6, unique=True,
        ))
        model = GNNModel.build(arch, FEATURES, 6, 3, num_layers=layers, seed=1)
        memo = ClosureMemo(model, graph)
        with _rounds_to_the_last_edge() if rounds else nullcontext():
            memo.fill([khop_closure(graph, [v], layers)[0] for v in group])
            store = memo._stores[0]
            # One fill of fewer than 1 024 rows: one block, as below.
            compute = np.flatnonzero(store.slot >= 0)
            with no_grad():
                expected = _block_path_rows(model.layer(1), graph, compute)
        got = store.read(compute)
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
