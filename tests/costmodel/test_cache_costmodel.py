"""Properties of the amortized CACHED term in the cost model / greedy.

Satellite properties for the staleness-bounded third mode:

- the greedy never chooses CACHED at ``tau = 1`` (no amortization, so
  it can never be *strictly* cheaper than DepComm);
- ``tau -> inf`` with an unbounded budget moves every communicated
  dependency into the CACHED set, whose steady-state comm volume is
  DepCache-like (zero);
- ``t_cached`` is monotonically non-increasing in ``tau`` and bounded
  by ``t_c``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.budget import CacheConfig
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.costmodel.costs import DependencyCostModel
from repro.costmodel.partitioner import partition_dependencies
from repro.costmodel.probe import probe_constants
from repro.engines import DepCommEngine
from repro.graph import generators
from repro.partition.chunk import chunk_partition

MODEL = GNNModel.gcn(8, 4, 2)
CONSTANTS = probe_constants(ClusterSpec.ecs(4), MODEL)


def random_setting(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(24, 90))
    g = generators.erdos_renyi(n, n * 3, seed=seed)
    m = int(rng.integers(2, 5))
    partitioning = chunk_partition(g, m)
    worker = int(rng.integers(0, m))
    return g, partitioning, worker


def cost_model(g, partitioning, worker):
    owned_mask = partitioning.assignment == worker
    return DependencyCostModel(g, MODEL.dims(), CONSTANTS, owned_mask)


class TestAmortizedCost:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 500),
        st.floats(0.0, 64.0, allow_nan=False),
        st.floats(0.0, 64.0, allow_nan=False),
    )
    def test_monotone_nonincreasing_in_tau(self, seed, tau_a, tau_b):
        g, partitioning, worker = random_setting(seed)
        model = cost_model(g, partitioning, worker)
        lo, hi = sorted((tau_a, tau_b))
        for layer in (1, 2):
            assert model.t_cached(layer, hi) <= model.t_cached(layer, lo)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 500), st.floats(0.0, 64.0, allow_nan=False))
    def test_bounded_by_t_c(self, seed, tau):
        g, partitioning, worker = random_setting(seed)
        model = cost_model(g, partitioning, worker)
        for layer in (1, 2):
            assert 0.0 <= model.t_cached(layer, tau) <= model.t_c(layer)

    def test_edge_cases(self):
        g, partitioning, worker = random_setting(0)
        model = cost_model(g, partitioning, worker)
        assert model.t_cached(1, 0.0) == model.t_c(1)
        assert model.t_cached(1, 1.0) == model.t_c(1)
        assert model.t_cached(1, 4.0) == pytest.approx(model.t_c(1) / 4.0)
        assert model.t_cached(1, float("inf")) == 0.0
        with pytest.raises(ValueError):
            model.t_cached(1, -0.5)


class TestGreedyNeverCachesAtTauOne:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 500))
    def test_tau_one_yields_empty_stale_sets(self, seed):
        g, partitioning, worker = random_setting(seed)
        result = partition_dependencies(
            g, partitioning, worker, MODEL.dims(), CONSTANTS,
            cache=CacheConfig(tau=1.0),
        )
        assert all(len(h) == 0 for h in result.stale_cached)
        assert result.cache_bytes == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 500), st.floats(0.0, 1.0, allow_nan=False))
    def test_tau_at_most_one_yields_empty_stale_sets(self, seed, tau):
        g, partitioning, worker = random_setting(seed)
        result = partition_dependencies(
            g, partitioning, worker, MODEL.dims(), CONSTANTS,
            cache=CacheConfig(tau=tau),
        )
        assert all(len(h) == 0 for h in result.stale_cached)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 500), st.floats(1.5, 64.0, allow_nan=False))
    def test_partition_is_disjoint_and_complete_with_cache(self, seed, tau):
        from repro.graph.khop import dependency_layers

        g, partitioning, worker = random_setting(seed)
        result = partition_dependencies(
            g, partitioning, worker, MODEL.dims(), CONSTANTS,
            cache=CacheConfig(tau=tau),
        )
        deps = dependency_layers(
            g, partitioning.part(worker), len(MODEL.dims()) - 1
        )
        for l, layer_deps in enumerate(deps):
            r, c = result.cached[l], result.communicated[l]
            h = result.stale_cached[l]
            union = np.union1d(np.union1d(r, c), h)
            assert (np.sort(layer_deps) == union).all()
            assert len(np.intersect1d(r, c)) == 0
            assert len(np.intersect1d(r, h)) == 0
            assert len(np.intersect1d(c, h)) == 0


class TestTauInfReducesToDepCacheVolume:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 200))
    def test_unbounded_budget_tau_inf_communicates_nothing(self, seed):
        g, partitioning, worker = random_setting(seed)
        result = partition_dependencies(
            g, partitioning, worker, MODEL.dims(), CONSTANTS,
            cache=CacheConfig(tau=float("inf")),
        )
        # Every dependency is replicated or CACHED; nothing is fetched
        # per-epoch (the steady-state comm volume is DepCache-like).
        assert all(len(c) == 0 for c in result.communicated)

    def test_engine_steady_state_comm_is_zero(self):
        g = generators.community(100, 4, avg_degree=6.0, seed=31)
        generators.attach_features(g, 12, 4, seed=32)
        g.set_split(rng=np.random.default_rng(33))
        g = g.gcn_normalized()
        engine = DepCommEngine(
            g, GNNModel.gcn(12, 8, 4, seed=1), ClusterSpec.ecs(4),
            cache_config=CacheConfig(tau=float("inf")),
        )
        first = engine.run_epoch()
        later = [engine.run_epoch() for _ in range(3)]
        assert first.comm_bytes > 0  # the one-time fetch
        assert all(r.comm_bytes == 0 for r in later)
        assert all(r.comm_saved_bytes == first.comm_bytes for r in later)
