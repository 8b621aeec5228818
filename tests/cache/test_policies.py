"""The one admission rank: local consumer count, ties by id."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.budget import CacheConfig, rank_candidates
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.costmodel import partitioner
from repro.engines import DepCommEngine, HybridEngine, depcomm
from repro.graph import generators
from repro.graph.graph import Graph
from repro.partition.base import Partitioning


@pytest.fixture
def star_setting():
    """Vertex 3 is a hub feeding every owned vertex of worker 0."""
    # Worker 0 owns {0, 1, 2}; edges 3 -> {0, 1, 2}, 4 -> 1, 5 -> 2.
    src = np.array([3, 3, 3, 4, 5, 0])
    dst = np.array([0, 1, 2, 1, 2, 4])
    g = Graph(6, src, dst, name="star")
    return g, np.array([0, 0, 0, 1, 1, 1])


def consumers(g, assignment, worker):
    """Reference: per-vertex count of out-edges into ``worker``."""
    return [
        sum(1 for u, v in zip(g.src, g.dst) if u == x and assignment[v] == worker)
        for x in range(g.num_vertices)
    ]


class TestRankCandidates:
    def test_orders_by_consumer_count(self, star_setting):
        g, assignment = star_setting
        order = rank_candidates(g, assignment, 0, np.array([5, 4, 3]))
        assert consumers(g, assignment, 0)[3:] == [3, 1, 1]
        assert order.tolist() == [3, 4, 5]  # hub first, then ties by id

    def test_counts_only_the_workers_own_consumers(self, star_setting):
        g, assignment = star_setting
        # Vertex 0 feeds worker 1's vertex 4, so it ranks first there;
        # 3 feeds nobody on worker 1 and ties with 2 by id.
        order = rank_candidates(g, assignment, 1, np.array([3, 2, 0]))
        assert order.tolist() == [0, 2, 3]

    def test_rank_is_a_permutation_and_deterministic(self, star_setting):
        g, assignment = star_setting
        candidates = np.array([5, 0, 4, 3])
        first = rank_candidates(g, assignment, 0, candidates)
        assert sorted(first.tolist()) == sorted(candidates.tolist())
        assert (first == rank_candidates(g, assignment, 0, candidates)).all()

    def test_empty_candidates(self, star_setting):
        g, assignment = star_setting
        empty = np.empty(0, dtype=np.int64)
        assert len(rank_candidates(g, assignment, 0, empty)) == 0


# -- why the rank is not a knob -------------------------------------------
#
# Every cache entry of a layer costs the same bytes and saves exactly one
# row's fetch, so the budget alone fixes how many candidates are admitted
# and with it every byte moved; the rank only picks which rows are stale.
# Any future rank (e.g. a sampled inclusion probability) inherits this
# guard.  Epochs run on the engine directly: the trainer's staleness guard
# reads losses, which do depend on which rows are stale, and a forced
# refresh would move the refresh schedule rather than the admission.


def _setting(seed, num_workers):
    g = generators.community(48 + seed % 40, 3, avg_degree=5.0, seed=seed)
    generators.attach_features(g, 8, 3, seed=seed + 1)
    g.set_split(rng=np.random.default_rng(seed + 2))
    g = g.gcn_normalized()
    assignment = np.random.default_rng(seed + 3).integers(
        0, num_workers, g.num_vertices
    )
    assignment[:num_workers] = np.arange(num_workers)  # no empty worker
    return g, Partitioning(assignment, num_workers)


def _run(engine_cls, graph, partitioning, cache, epochs=4, **kwargs):
    """(stale ids per layer and worker, comm bytes, refresh bytes)."""
    engine = engine_cls(
        graph, GNNModel.gcn(8, 6, 3, seed=1),
        ClusterSpec.ecs(partitioning.num_parts),
        partitioning=partitioning, cache_config=cache, **kwargs,
    )
    reports = [engine.run_epoch() for _ in range(epochs)]
    return (
        [[h.tolist() for h in per_l] for per_l in engine.plan().stale_deps],
        [r.comm_bytes for r in reports],
        [r.refresh_bytes for r in reports],
    )


def _shuffled(seed):
    """A stand-in rank: a seeded random permutation of the candidates."""
    rng = np.random.default_rng(seed)
    return lambda graph, assignment, worker, candidates: rng.permutation(
        np.asarray(candidates, dtype=np.int64)
    )


def _ranked_and_shuffled(engine_cls, seed, num_workers, cache, **kwargs):
    graph, partitioning = _setting(seed, num_workers)
    ranked = _run(engine_cls, graph, partitioning, cache, **kwargs)
    with mock.patch.object(depcomm, "rank_candidates", _shuffled(seed)), \
            mock.patch.object(partitioner, "rank_candidates", _shuffled(seed)):
        shuffled = _run(engine_cls, graph, partitioning, cache, **kwargs)
    return ranked, shuffled


def _assert_rank_moves_no_byte(engine_cls, seed, num_workers, cache, **kwargs):
    ranked, shuffled = _ranked_and_shuffled(
        engine_cls, seed, num_workers, cache, **kwargs
    )
    (ranked_ids, *ranked_bytes), (shuffled_ids, *shuffled_bytes) = ranked, shuffled
    counts = [[len(h) for h in per_l] for per_l in ranked_ids]
    assert [[len(h) for h in per_l] for per_l in shuffled_ids] == counts
    assert shuffled_bytes == ranked_bytes


TAUS = st.sampled_from([2.0, 3.0, 4.0, 8.0, float("inf")])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), TAUS,
       st.one_of(st.none(), st.integers(0, 1_500)))
def test_depcomm_rank_moves_no_byte(seed, num_workers, tau, capacity):
    _assert_rank_moves_no_byte(
        DepCommEngine, seed, num_workers,
        CacheConfig(tau=tau, capacity_bytes=capacity),
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), TAUS,
       st.integers(0, 4_000), st.one_of(st.none(), st.integers(0, 800)))
def test_hybrid_rank_moves_no_byte_under_a_memory_limit(
    seed, num_workers, tau, memory_limit, capacity
):
    _assert_rank_moves_no_byte(
        HybridEngine, seed, num_workers,
        CacheConfig(tau=tau, capacity_bytes=capacity),
        memory_limit_bytes=memory_limit,
    )


@pytest.mark.parametrize("engine_cls,kwargs", [
    (DepCommEngine, {}), (HybridEngine, {"memory_limit_bytes": 1_000}),
])
def test_shuffled_rank_does_change_which_rows_are_stale(engine_cls, kwargs):
    """The two properties above are not vacuous: here the budget admits
    only part of a layer, and the stand-in rank picks other rows."""
    ranked, shuffled = _ranked_and_shuffled(
        engine_cls, 7, 3, CacheConfig(tau=4.0, capacity_bytes=1_000), **kwargs
    )
    assert ranked[0] != shuffled[0]
