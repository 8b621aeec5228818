"""Batched Algorithm 4 versus the scalar one it replaced.

``seed_greedy`` keeps the one-root ``t_r`` / ``commit`` walk and the
per-dependency heap greedy alive as the reference.  Every comparison is
exact (``==`` on floats): the batched probes perform the same float
operations in the same order, so nothing is allowed to drift.
"""

import copy
import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.budget import CacheConfig
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.costmodel import costs, partitioner
from repro.costmodel.costs import DependencyCostModel, TensorParallelCostInputs
from repro.costmodel.partitioner import partition_dependencies
from repro.costmodel.probe import ProbeResult, probe_constants
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.khop import dependency_layers
from repro.partition.base import Partitioning
from repro.partition.chunk import chunk_partition
from seed_greedy import seed_commit, seed_partition_dependencies, seed_t_r


# ---------------------------------------------------------------------------
# The two probes and the one-root view, on random graphs.
# ---------------------------------------------------------------------------

def _constants(num_layers):
    # Distinct, non-dyadic per-layer rates so a reordered float sum shows.
    t_v = [1.1e-7 * (l + 3) for l in range(num_layers)]
    t_e = [3.7e-9 * (l + 2) for l in range(num_layers)]
    t_c = [2.3e-6 * (l + 1) for l in range(num_layers)]
    return ProbeResult(t_v[0], t_e[0], t_c[0], t_v, t_e, t_c)


@st.composite
def probe_cases(draw):
    n = draw(st.integers(2, 16))
    m = draw(st.integers(0, 60))
    num_layers = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    # Random COO: duplicate edges and self loops included on purpose.
    graph = Graph(n, rng.integers(0, n, size=m), rng.integers(0, n, size=m))
    dims = [int(d) for d in rng.integers(1, 9, size=num_layers + 1)]
    model = DependencyCostModel(
        graph, dims, _constants(num_layers),
        owned_mask=rng.random(n) < 0.3,
        mu=float(rng.uniform(0.1, 1.0)),
    )
    model.replicated = [rng.random(n) < 0.2 for _ in dims]
    layer = draw(st.integers(1, num_layers))
    roots = rng.permutation(n)[: draw(st.integers(0, n))].astype(np.int64)
    return model, roots, layer


def _assert_entry(batch, j, reference):
    assert batch.cost_s[j] == reference.cost_s
    assert batch.new_edge_count[j] == reference.new_edge_count
    assert batch.memory_bytes[j] == reference.memory_bytes


@settings(max_examples=150, deadline=None)
@given(case=probe_cases(), first_chunk=st.integers(1, 5), target=st.integers(1, 40))
def test_independent_probe_matches_scalar_loop(case, first_chunk, target):
    model, roots, layer = case
    before = copy.deepcopy(model.replicated)
    # Tiny chunks so most examples cross several chunk boundaries.
    with mock.patch.object(costs, "_FIRST_CHUNK_ROOTS", first_chunk), \
            mock.patch.object(costs, "_TARGET_PAIRS", target):
        batch = model.measure_independent(roots, layer)
    assert len(batch.cost_s) == len(roots)
    for j, u in enumerate(roots):
        _assert_entry(batch, j, seed_t_r(model, int(u), layer))
    for mask, mask_before in zip(model.replicated, before):
        assert np.array_equal(mask, mask_before)


@settings(max_examples=150, deadline=None)
@given(case=probe_cases(), data=st.data())
def test_in_order_probe_matches_scalar_commit_loop(case, data):
    model, roots, layer = case
    reference = copy.deepcopy(model)
    batch = model.measure_in_order(roots, layer)
    count = data.draw(st.integers(0, len(roots)))
    for j, u in enumerate(roots):
        if j == count:
            committed = copy.deepcopy(reference.replicated)
        measurement = seed_t_r(reference, int(u), layer)
        _assert_entry(batch, j, measurement)
        seed_commit(reference, int(u), layer, measurement)
    if count == len(roots):
        committed = reference.replicated
    model.commit_prefix(batch, count)
    for mask, expected in zip(model.replicated, committed):
        assert np.array_equal(mask, expected)


@settings(max_examples=100, deadline=None)
@given(case=probe_cases())
def test_scalar_view_matches_seed_walk(case):
    model, roots, layer = case
    reference = copy.deepcopy(model)
    for u in roots:
        got = model.t_r(int(u), layer)
        want = seed_t_r(reference, int(u), layer)
        assert got.cost_s == want.cost_s
        assert got.new_edge_count == want.new_edge_count
        assert got.memory_bytes == want.memory_bytes
        # One sorted array per level, k = layer-1 .. 0 (the seed walk
        # drops the levels below an empty frontier).
        assert len(got.new_vertices) == layer
        for fresh, fresh_ref in zip(got.new_vertices, want.new_vertices[:-1]):
            assert np.array_equal(fresh, fresh_ref)
        assert np.array_equal(
            np.concatenate(got.new_vertices[len(want.new_vertices) - 1:]),
            want.new_vertices[-1],
        )
        model.commit(int(u), layer, got)
        seed_commit(reference, int(u), layer, want)
        for mask, expected in zip(model.replicated, reference.replicated):
            assert np.array_equal(mask, expected)


# ---------------------------------------------------------------------------
# partition_dependencies, every output field, across its inputs.
# ---------------------------------------------------------------------------

def _assert_same_partition(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if not isinstance(b, list):
            assert a == b, f.name
            continue
        assert len(a) == len(b), f.name
        for x, y in zip(a, b):
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype, f.name
                assert np.array_equal(x, y), f.name
            elif isinstance(y, dict):
                assert list(x.items()) == list(y.items()), f.name
            else:
                assert x == y, f.name


def _skewed(num_layers):
    g = generators.scaled_social(160, avg_degree=6.0, hub_exponent=1.0, seed=5)
    return g, GNNModel.gcn(8, 6, 3, num_layers=num_layers)


def _local(num_layers):
    g = generators.locality_graph(
        96, 700, locality_width=0.05, global_fraction=0.4, seed=1
    )
    return g, GNNModel.gcn(8, 4, 2, num_layers=num_layers)


GRID_GRAPHS = {
    "skewed-2": lambda: _skewed(2),
    "skewed-3": lambda: _skewed(3),
    "local-2": lambda: _local(2),
    "local-4": lambda: _local(4),
}


@pytest.fixture(scope="module", params=sorted(GRID_GRAPHS))
def grid_setting(request):
    graph, model = GRID_GRAPHS[request.param]()
    cluster = ClusterSpec.ecs(4)
    # Dear communication, so the deeper layers cache a real prefix and
    # the pop loop runs past its first block.
    constants = probe_constants(cluster, model)
    constants = dataclasses.replace(
        constants, t_c_layer=[t * 40 for t in constants.t_c_layer]
    )
    partitioning = chunk_partition(graph, 4)
    loose = partition_dependencies(
        graph, partitioning, 1, model.dims(), constants, memory_limit_bytes=1 << 40
    ).memory_bytes
    assert loose > 0
    return graph, model, partitioning, constants, loose


def _tp_inputs(graph, partitioning, worker, cost_scale):
    return TensorParallelCostInputs(
        num_workers=partitioning.num_parts,
        num_vertices=graph.num_vertices,
        num_owned=len(partitioning.part(worker)),
        total_edges=graph.num_edges,
        owned_in_edges=int((partitioning.assignment[graph.dst] == worker).sum()),
        cost_scale=cost_scale,
    )


@pytest.mark.parametrize("first_block", [2, partitioner._FIRST_POP_BLOCK])
def test_partition_matches_seed_greedy_on_every_field(grid_setting, first_block):
    graph, model, partitioning, constants, loose = grid_setting
    worker = 1
    budgets = [None, 0, loose // 3, loose * 2]
    fractions = [None, 0.0, 0.35, 1.0]
    caches = [None, CacheConfig(tau=3.0, policy="degree")]
    # A TP price low enough to flip a layer, and one that never wins.
    tps = [None, _tp_inputs(graph, partitioning, worker, 1e-3),
           _tp_inputs(graph, partitioning, worker, 1e3)]
    flipped = stopped_on_budget = 0
    with mock.patch.object(partitioner, "_FIRST_POP_BLOCK", first_block):
        for budget, fraction, cache, tp in itertools.product(
            budgets, fractions, caches, tps
        ):
            kwargs = dict(
                memory_limit_bytes=budget, force_cache_fraction=fraction,
                cache=cache, tp=tp,
            )
            args = (graph, partitioning, worker, model.dims(), constants)
            got = partition_dependencies(*args, **kwargs)
            want = seed_partition_dependencies(*args, **kwargs)
            _assert_same_partition(got, want)
            flipped += any(want.tp_layers)
            stopped_on_budget += (
                budget is not None and 0 < want.memory_bytes < loose
            )
            # Warm start: full prior costs, then a prior that misses some
            # dependencies (those fall back to a fresh measurement).
            partial = copy.deepcopy(want)
            for layer_costs in partial.initial_costs:
                for u in list(layer_costs)[::3]:
                    del layer_costs[u]
            for prior in (want, partial):
                warm = partition_dependencies(*args, warm_start=prior, **kwargs)
                warm_ref = seed_partition_dependencies(
                    *args, warm_start=prior, **kwargs
                )
                _assert_same_partition(warm, warm_ref)
    # The grid really reaches the branches it is meant to pin.
    assert flipped and stopped_on_budget


# ---------------------------------------------------------------------------
# Degenerate inputs: a well-formed partition, never an IndexError or a
# bincount shape error from an empty frontier.
# ---------------------------------------------------------------------------

def _assert_well_formed(result, graph, partitioning, worker, num_layers):
    deps = dependency_layers(graph, partitioning.part(worker), num_layers)
    for name in ("cached", "communicated", "stale_cached", "initial_costs",
                 "tp_layers", "tp_cost_s", "three_way_cost_s"):
        assert len(getattr(result, name)) == num_layers, name
    for l in range(num_layers):
        pieces = [result.cached[l], result.communicated[l], result.stale_cached[l]]
        for piece in pieces:
            assert piece.dtype == np.int64
            assert np.array_equal(piece, np.unique(piece))
        assert np.array_equal(np.sort(np.concatenate(pieces)), deps[l])
    assert result.memory_bytes >= 0
    assert result.modeled_seconds >= 0.0
    return deps


@pytest.fixture
def degenerate_model():
    model = GNNModel.gcn(8, 4, 2, num_layers=3)
    return model, probe_constants(ClusterSpec.ecs(4), model)


class TestDegenerateInputs:
    def test_empty_owned_set(self, degenerate_model):
        model, constants = degenerate_model
        g = generators.locality_graph(40, 200, seed=2)
        assignment = np.arange(40) % 3  # worker 3 owns nothing
        partitioning = Partitioning(assignment, 4)
        result = partition_dependencies(
            g, partitioning, 3, model.dims(), constants, memory_limit_bytes=1 << 20
        )
        deps = _assert_well_formed(result, g, partitioning, 3, 3)
        assert all(len(d) == 0 for d in deps)
        assert result.measured_evaluations == 0

    def test_one_worker_has_no_remote_dependencies(self, degenerate_model):
        model, constants = degenerate_model
        g = generators.locality_graph(40, 200, seed=2)
        partitioning = chunk_partition(g, 1)
        result = partition_dependencies(g, partitioning, 0, model.dims(), constants)
        _assert_well_formed(result, g, partitioning, 0, 3)
        assert result.cache_ratio() == 1.0
        assert result.measured_evaluations == 0

    def test_zero_edge_graph(self, degenerate_model):
        model, constants = degenerate_model
        empty = np.empty(0, dtype=np.int64)
        g = Graph(12, empty, empty)
        partitioning = chunk_partition(g, 4)
        result = partition_dependencies(
            g, partitioning, 2, model.dims(), constants, memory_limit_bytes=0
        )
        _assert_well_formed(result, g, partitioning, 2, 3)

    def test_isolated_dependency_vertices(self, degenerate_model):
        # Every dependency has no in-edges of its own: the walk's
        # frontier is empty from the second level on.
        model, constants = degenerate_model
        g = Graph(8, np.array([4, 5, 6, 7]), np.array([0, 1, 2, 3]))
        partitioning = Partitioning(np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2)
        args = (g, partitioning, 0, model.dims(), constants)
        result = partition_dependencies(*args)
        deps = _assert_well_formed(result, g, partitioning, 0, 3)
        assert np.array_equal(deps[0], [4, 5, 6, 7])
        _assert_same_partition(result, seed_partition_dependencies(*args))

    @pytest.mark.parametrize("kwargs, caches_all", [
        (dict(memory_limit_bytes=0), False),
        (dict(force_cache_fraction=0.0), False),
        (dict(force_cache_fraction=1.0), True),
        (dict(force_cache_fraction=1.0, memory_limit_bytes=0), False),
    ], ids=["budget-0", "quota-0", "quota-all", "quota-all-budget-0"])
    def test_budget_and_quota_extremes(self, degenerate_model, kwargs, caches_all):
        model, constants = degenerate_model
        g = generators.locality_graph(
            60, 400, locality_width=0.05, global_fraction=0.4, seed=3
        )
        partitioning = chunk_partition(g, 4)
        args = (g, partitioning, 1, model.dims(), constants)
        result = partition_dependencies(*args, **kwargs)
        deps = _assert_well_formed(result, g, partitioning, 1, 3)
        _assert_same_partition(result, seed_partition_dependencies(*args, **kwargs))
        expected = [len(d) if caches_all else 0 for d in deps]
        assert [len(c) for c in result.cached] == expected
