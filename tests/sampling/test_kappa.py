"""Batch dependency (kappa): the kappa rounds of a block share draws.

Kappa is a draw key: round ``r`` samples with ``batch = r // kappa``,
so a vertex that two rounds of one block both expand at one layer gets
the same neighbour list in both, and nothing is stored between rounds.
0 and 1 both mean independent rounds.
"""

import itertools

import numpy as np
import pytest

from repro.core.model import GNNModel
from repro.sampling import SAMPLER_NAMES, SampledTrainingEngine
from repro.training.prep import prepare_graph


@pytest.fixture
def graph(small_graph):
    return prepare_graph(small_graph, "gcn")


def _engine(graph, cluster, *, sampler="uniform", kappa=1, seed=0,
            batch_size=8):
    model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=1)
    return SampledTrainingEngine(
        graph, model, cluster, fanouts=(3, 5), batch_size=batch_size,
        sampler=sampler, kappa=kappa, seed=seed,
    )


def _closures(engine):
    """Every round's ``{worker: closure}`` of one shuffled epoch."""
    return [closures for _, closures, _, _, _ in engine.rounds(shuffle=True)]


def _lists(block):
    """``{vertex: its kept in-edge ids}`` of one block."""
    bounds = np.concatenate(([0], np.cumsum(block.edge_counts)))
    return {
        int(v): block.edge_ids[a:b].tobytes()
        for v, a, b in zip(block.compute_vertices, bounds[:-1], bounds[1:])
    }


class TestKappaZero:
    def test_engine_kappa_zero_matches_engine_default(self, graph, cluster2):
        a = _engine(graph, cluster2, kappa=0)
        b = _engine(graph, cluster2)
        assert a.kappa == b.kappa == 1
        assert a.charge_epoch() == b.charge_epoch()
        assert a.last_epoch_stats == b.last_epoch_stats

    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_kappa_one_draws_what_kappa_zero_draws(self, graph, cluster2, name):
        # LADIES draws over the union frontier, so it shares a block's
        # stream but not its lists; at kappa 1 every round is its own
        # block, for it too.
        zero = _closures(_engine(graph, cluster2, sampler=name, kappa=0.0))
        one = _closures(_engine(graph, cluster2, sampler=name, kappa=1))
        assert len(zero) == len(one) > 1
        for a, b in zip(zero, one):
            assert list(a) == list(b)
            for w in a:
                for x, y in zip(a[w].blocks, b[w].blocks):
                    assert x.edge_ids.tobytes() == y.edge_ids.tobytes()
                    assert x.edge_weight.tobytes() == y.edge_weight.tobytes()


class TestKappaBlocks:
    @pytest.mark.parametrize("name", ["uniform", "labor"])
    def test_rounds_of_a_block_share_every_list(self, graph, cluster2, name):
        """Two rounds in one kappa-block draw identical lists for every
        (vertex, layer) they share; rounds of different blocks do not."""
        kappa = 4
        rounds = _closures(
            _engine(graph, cluster2, sampler=name, kappa=kappa, batch_size=4)
        )
        assert len(rounds) > kappa
        shared = {True: 0, False: 0}
        differ = {True: 0, False: 0}
        for (r, a), (s, b) in itertools.combinations(enumerate(rounds), 2):
            same_block = r // kappa == s // kappa
            for wa, wb in itertools.product(a.values(), b.values()):
                for x, y in zip(wa.blocks, wb.blocks):
                    lx, ly = _lists(x), _lists(y)
                    for v in lx.keys() & ly.keys():
                        shared[same_block] += 1
                        differ[same_block] += lx[v] != ly[v]
        assert shared[True] > 0 and differ[True] == 0
        assert differ[False] > 0
