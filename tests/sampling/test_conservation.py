"""Every remote bottom row of a round is fetched, resident or pinned.

Per round and worker, under every sampler with the feature cache off
and on: the rows pinned in the cache, the rows the worker held from its
previous round, and the rows it fetches are disjoint and together are
its remote bottom inputs; the bottom exchange moves exactly the fetched
rows at ``d0 * 4`` bytes each; and ``distdgl``, which holds nothing
between rounds, fetches every remote row.  The expected split is
derived here from the sets, not read from the compiler.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.graph.datasets import load_dataset
from repro.sampling import SAMPLER_NAMES
from repro.training.prep import prepare_graph

CACHE_BYTES = (0, int(0.05 * 1024 * 1024))


@pytest.fixture(scope="module")
def graph():
    return prepare_graph(load_dataset("cora", scale=0.2), "gcn")


def _engine(graph, name, **kwargs):
    model = GNNModel.gcn(graph.feature_dim, 16, graph.num_classes, seed=1)
    return make_engine(
        name, graph, model, ClusterSpec.ecs(4), fanouts=(3, 5),
        batch_size=16, seed=0, **kwargs,
    )


def _check_epoch(engine):
    """Check every round of one shuffled epoch; return the epoch's
    ``(remote, resident, pinned, fetched)`` row totals."""
    d0 = engine.dims[0]
    held = {}
    totals = np.zeros(4, dtype=np.int64)
    for _, closures, plan, program, traffic in engine.rounds(shuffle=True):
        round_totals = np.zeros(4, dtype=np.int64)
        recv = program.layers[0].exchange.volumes
        for w, closure in closures.items():
            inputs = closure.blocks[0].input_vertices
            remote = inputs[engine.assignment[inputs] != w]
            assert np.array_equal(traffic.per_worker_remote[w], remote)
            cache = engine.feature_cache
            pinned = np.intersect1d(
                remote, cache.pinned_for(w) if cache is not None else []
            )
            resident = np.intersect1d(
                np.setdiff1d(remote, pinned), held.get(w, [])
            )
            fetched = plan.comm_ids[0][w]
            for a, b in ((pinned, resident), (pinned, fetched), (resident, fetched)):
                assert not len(np.intersect1d(a, b))
            assert np.array_equal(
                np.union1d(np.union1d(pinned, resident), fetched), remote
            )
            assert len(pinned) + len(resident) + len(fetched) == len(remote)
            assert traffic.per_worker_fetch[w] == len(fetched)
            # Worker w receives its fetched rows, each d0 float32s wide.
            assert recv[:, w].sum() - recv[w, w] == len(fetched) * d0 * 4
            round_totals += (len(remote), len(resident), len(pinned), len(fetched))
            if engine.keeps_resident_rows:
                held[w] = remote
        assert tuple(round_totals) == (
            traffic.remote_rows, traffic.resident_rows,
            traffic.pinned_rows, traffic.fetch_rows,
        )
        assert program.layers[0].exchange.total_bytes() == traffic.fetch_rows * d0 * 4
        for upper in program.layers[1:]:
            assert upper.exchange.total_bytes() == 0
        totals += round_totals
    return totals


@pytest.mark.parametrize("cache", CACHE_BYTES)
@pytest.mark.parametrize("kappa", [1, 4])
@pytest.mark.parametrize("sampler", SAMPLER_NAMES)
def test_sampled_rows_are_conserved(graph, sampler, kappa, cache):
    engine = _engine(
        graph, "sampled", sampler=sampler, kappa=kappa,
        feature_cache_bytes=cache,
    )
    remote, resident, pinned, fetched = _check_epoch(engine)
    assert resident > 0 and fetched > 0
    assert (pinned > 0) == (cache > 0)


@pytest.mark.parametrize("cache", CACHE_BYTES)
def test_distdgl_fetches_every_remote_row(graph, cache):
    engine = _engine(graph, "distdgl", feature_cache_bytes=cache)
    remote, resident, pinned, fetched = _check_epoch(engine)
    assert resident == 0
    assert fetched + pinned == remote
    if not cache:
        assert fetched == remote
