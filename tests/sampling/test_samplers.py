"""The sampler family: determinism, bounds, block chaining."""

import numpy as np
import pytest

from repro.sampling import SAMPLER_NAMES, make_sampler
from repro.sampling.samplers import LadiesSampler
from repro.training.prep import prepare_graph


@pytest.fixture
def graph(small_graph):
    return prepare_graph(small_graph, "gcn")


def _closures_equal(a, b):
    if a.num_sampled_edges != b.num_sampled_edges:
        return False
    if a.frontier_sizes != b.frontier_sizes:
        return False
    for ba, bb in zip(a.blocks, b.blocks):
        if not np.array_equal(ba.edge_src_global, bb.edge_src_global):
            return False
        if not np.array_equal(ba.input_vertices, bb.input_vertices):
            return False
        if not np.array_equal(ba.edge_weight, bb.edge_weight):
            return False
    return True


class TestDeterminism:
    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_same_key_same_closure(self, graph, name):
        seeds = np.arange(12)
        a = make_sampler(name, (3, 5), seed=7).sample_batch(
            graph, {0: seeds}, epoch=2, batch=1
        )[0]
        b = make_sampler(name, (3, 5), seed=7).sample_batch(
            graph, {0: seeds}, epoch=2, batch=1
        )[0]
        assert _closures_equal(a, b)

    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_epoch_changes_draw(self, graph, name):
        seeds = np.arange(12)
        sampler = make_sampler(name, (2, 3), seed=7)
        a = sampler.sample_batch(graph, {0: seeds}, epoch=0, batch=0)[0]
        b = sampler.sample_batch(graph, {0: seeds}, epoch=1, batch=0)[0]
        assert not _closures_equal(a, b)

    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_seed_changes_draw(self, graph, name):
        seeds = np.arange(12)
        a = make_sampler(name, (2, 3), seed=0).sample_batch(graph, {0: seeds})[0]
        b = make_sampler(name, (2, 3), seed=1).sample_batch(graph, {0: seeds})[0]
        assert not _closures_equal(a, b)


class TestBounds:
    @pytest.mark.parametrize("name", ["uniform", "labor"])
    def test_fanout_never_exceeded(self, graph, name):
        fanouts = (3, 5)
        closure = make_sampler(name, fanouts, seed=0).sample_batch(
            graph, {0: np.arange(16)}
        )[0]
        # blocks[l-1] computes layer l; fanouts are listed top layer first.
        for block, fanout in zip(closure.blocks, reversed(fanouts)):
            counts = np.bincount(
                block.edge_dst_pos, minlength=block.num_outputs
            )
            assert counts.max() <= fanout

    def test_uniform_keeps_low_degree_vertices_whole(self, graph):
        fanout = 3
        closure = make_sampler("uniform", (fanout, 5), seed=0).sample_batch(
            graph, {0: np.arange(16)}
        )[0]
        top = closure.blocks[-1]
        counts = np.bincount(top.edge_dst_pos, minlength=top.num_outputs)
        for v, c in zip(top.compute_vertices, counts):
            assert c == min(fanout, graph.csc.degree(int(v)))

    def test_ladies_budget_never_exceeded(self, graph):
        fanouts = (2, 3)
        seeds = np.arange(20)
        sampler = make_sampler("ladies", fanouts, seed=0)
        closure = sampler.sample_batch(graph, {0: seeds})[0]
        budget = fanouts[0] * len(seeds)
        assert len(np.unique(closure.blocks[-1].edge_src_global)) <= budget

    def test_ladies_reweights_kept_edges(self, graph):
        # Importance scales only ever grow edge weights (p <= 1/budget
        # per kept source), so the reweighted block dominates the raw
        # weights wherever sampling actually dropped candidates.
        sampler = LadiesSampler((1, 1), seed=0)
        closure = sampler.sample_batch(graph, {0: np.arange(24)})[0]
        for block in closure.blocks:
            if block.num_edges:
                raw = graph.edge_weight[block.edge_ids]
                assert (block.edge_weight >= raw - 1e-12).all()


class TestClosureShape:
    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_blocks_chain(self, graph, name):
        closure = make_sampler(name, (3, 5), seed=0).sample_batch(
            graph, {0: np.arange(10)}
        )[0]
        assert np.array_equal(
            closure.blocks[0].compute_vertices,
            closure.blocks[1].input_vertices,
        )
        assert closure.frontier_sizes[0] == 10
        assert closure.num_layers == 2

    def test_frontier_sizes_match_blocks(self, graph):
        closure = make_sampler("uniform", (3, 5), seed=0).sample_batch(
            graph, {0: np.arange(10)}
        )[0]
        assert closure.frontier_sizes[-1] == len(
            closure.blocks[0].input_vertices
        )


class TestValidation:
    def test_unknown_sampler(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            make_sampler("importance", (3, 5))

    def test_fanouts_must_be_positive(self):
        with pytest.raises(ValueError, match="fanouts must be positive"):
            make_sampler("uniform", (3, 0))
        with pytest.raises(ValueError, match="fanouts must be positive"):
            make_sampler("uniform", ())
