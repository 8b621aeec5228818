"""A round is sampled at once: one gather, one keyed hash and one rank
per layer for every worker's batch.

The round must change nothing a worker sees.  The packed-key rank is
checked against the two-key ``np.lexsort`` rank it replaced
(``lexsort_rank.py``), and every worker's closure drawn with its round
against the same worker drawn alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lexsort_rank import rank_within_group

from repro.graph.graph import Graph
from repro.sampling import SAMPLER_NAMES, make_sampler
from repro.sampling.samplers import _rank_within_runs
from repro.training.prep import prepare_graph
from repro.utils.rng import hashed_uint64, hashed_uniforms

TOP_KEY = (1 << 53) - 1

# Stored and derived, everything a reader of a block can see.
BLOCK_FIELDS = (
    "compute_vertices", "input_vertices", "edge_src_global", "edge_ids",
    "edge_counts", "edge_src_pos", "edge_dst_pos", "edge_weight",
    "compute_pos_in_inputs", "edge_weight_rescaled",
)


@pytest.fixture
def graph(small_graph):
    return prepare_graph(small_graph, "gcn")


def _assert_ranks_match(counts, keys):
    counts = np.asarray(counts, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.uint64)
    groups = np.repeat(np.arange(len(counts)), counts)
    got = _rank_within_runs(counts, keys)
    assert got.dtype == np.int64
    assert np.array_equal(got, rank_within_group(groups, keys))


class TestPackedRank:
    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=9), max_size=40),
        high=st.sampled_from([0, 3, 40, TOP_KEY]),
        data=st.data(),
    )
    def test_equals_the_lexsort_rank(self, counts, high, data):
        # Small key ranges force ties inside a run; the top range checks
        # that the run ordinal never spills into the key bits.
        keys = data.draw(st.lists(
            st.integers(min_value=max(0, high - 40), max_value=high),
            min_size=sum(counts), max_size=sum(counts),
        ))
        _assert_ranks_match(counts, keys)

    def test_more_than_2048_runs(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(1, 5, size=5000)
        _assert_ranks_match(counts, rng.integers(0, 8, size=counts.sum()))
        _assert_ranks_match(
            counts, TOP_KEY - rng.integers(0, 3, size=counts.sum())
        )

    def test_one_run(self):
        _assert_ranks_match([6], [5, 1, 5, 0, TOP_KEY, 1])

    def test_empty_input(self):
        _assert_ranks_match([], [])

    def test_shared_source_ties_on_a_multigraph(self):
        # LABOR keys an edge by its source, so parallel edges tie.
        src = np.repeat(np.arange(3), 4)
        keys = hashed_uint64(0, "labor", 0, 0, 1, ids=np.tile(src, 50)) >> 11
        _assert_ranks_match(np.full(50, 12), keys)


def _multigraph():
    """Every vertex has 12 in-edges from only 3 sources."""
    rng = np.random.default_rng(1)
    num_vertices = 200
    dst = np.repeat(np.arange(num_vertices), 12)
    src = np.repeat(rng.integers(0, num_vertices, size=(num_vertices, 3)), 4)
    return Graph(num_vertices, src, dst, name="multigraph")


def _labor_reference(sampler, graph, frontier, fanout, layer, epoch, batch):
    """LABOR as it was drawn per worker, ranked by the lexsort."""
    counts, src, eids = graph.csc.select(frontier)
    position = np.repeat(np.arange(len(frontier)), counts)
    dst = frontier[position]
    csc = graph.csc
    degree = (csc.indptr[dst + 1] - csc.indptr[dst]).astype(np.float64)
    r = hashed_uniforms(sampler.seed, "labor", epoch, batch, layer, ids=src)
    accepted = np.flatnonzero(r * degree <= float(fanout))
    keep = accepted[rank_within_group(dst[accepted], r[accepted]) < fanout]
    capped = int((np.bincount(dst[accepted]) > fanout).sum())
    kept_counts = np.bincount(position[keep], minlength=len(frontier))
    return (src[keep], kept_counts, eids[keep]), capped


def test_labor_multigraph_ranks_parallel_edges_like_the_lexsort():
    graph = _multigraph()
    sampler = make_sampler("labor", (2, 2), seed=4)
    frontiers = [np.arange(0, 120), np.arange(80, 200)]
    capped = 0
    for epoch in range(4):
        got = sampler._sample_layer(
            graph, frontiers, 2, 1, epoch=epoch, batch=1, num_seeds=[1, 1]
        )
        for frontier, (src, counts, eids, scale) in zip(frontiers, got):
            want, n = _labor_reference(sampler, graph, frontier, 2, 1, epoch, 1)
            assert scale is None
            for a, b in zip((src, counts, eids), want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            capped += n
    # Some destinations accepted more parallel edges than the fanout,
    # so the tie order decided which ones were kept.
    assert capped > 0


def _assert_same_closure(a, b):
    assert a.worker == b.worker
    assert a.seeds.dtype == b.seeds.dtype and np.array_equal(a.seeds, b.seeds)
    for name in ("num_sampled_edges", "frontier_sizes"):
        assert getattr(a, name) == getattr(b, name), name
    assert len(a.blocks) == len(b.blocks)
    for x, y in zip(a.blocks, b.blocks):
        for name in BLOCK_FIELDS:
            u, v = getattr(x, name), getattr(y, name)
            if isinstance(u, np.ndarray):
                assert u.dtype == v.dtype, name
                assert u.tobytes() == v.tobytes(), name
            else:
                assert u == v, name


class TestRoundEqualsWorkersAlone:
    @pytest.mark.parametrize("num_workers", [1, 8])
    @pytest.mark.parametrize("kappa", [0.0, 4])
    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_every_worker_alone(self, graph, name, kappa, num_workers):
        # Workers draw seeds from one pool, so their frontiers share
        # vertices.  Odd workers have one batch fewer and the last
        # batch is short, so the last round is partial.  At kappa 4
        # every round draws with the same key, as the engine keys them.
        rng = np.random.default_rng(7)
        batches = {
            w: [
                rng.choice(graph.num_vertices, size=size, replace=False)
                for size in ((12, 12, 5) if w % 2 == 0 else (12, 12))
            ]
            for w in range(num_workers)
        }
        sampler = make_sampler(name, (3, 5), seed=11)
        for r in range(3):
            batch = r // max(int(kappa), 1)
            seeds = {w: b[r] for w, b in batches.items() if r < len(b)}
            together = sampler.sample_batch(graph, seeds, epoch=1, batch=batch)
            assert list(together) == list(seeds)
            for w, s in seeds.items():
                alone = sampler.sample_batch(
                    graph, {w: s}, epoch=1, batch=batch
                )[w]
                _assert_same_closure(together[w], alone)

    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_a_vertex_shared_across_a_segment_boundary(self, graph, name):
        # Vertex 5 ends worker 0's frontier and starts worker 1's, so
        # its two candidate runs are adjacent in the round's gather.
        seeds = {0: np.array([2, 5]), 1: np.array([5, 9]), 2: np.array([9])}
        assert graph.csc.degree(5) > 2 and graph.csc.degree(9) > 2
        sampler = make_sampler(name, (2, 2), seed=3)
        for batch in range(8):
            together = sampler.sample_batch(graph, seeds, batch=batch)
            for w, s in seeds.items():
                alone = sampler.sample_batch(graph, {w: s}, batch=batch)[w]
                _assert_same_closure(together[w], alone)

    def test_empty_round(self, graph):
        assert make_sampler("uniform", (3, 5)).sample_batch(graph, {}) == {}


class TestSeedValidation:
    @pytest.mark.parametrize("bad", [-1, 64, 10**6])
    def test_out_of_range_seed_names_worker_and_id(self, graph, bad):
        assert graph.num_vertices == 64
        sampler = make_sampler("uniform", (3, 5))
        with pytest.raises(ValueError, match=rf"worker 3: seed {bad} is not"):
            sampler.sample_batch(
                graph, {0: np.arange(4), 3: np.array([1, bad, 2])}
            )
