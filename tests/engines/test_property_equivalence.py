"""Randomized equivalence sweep: engines agree on arbitrary graphs.

A light-weight property test (seeded configurations rather than
hypothesis, since each case runs a real distributed epoch): random
graph shape x architecture x worker count, asserting loss equality and
gradient closeness between DepComm and Hybrid/DepCache.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import DepCacheEngine, DepCommEngine, HybridEngine
from repro.graph import generators
from repro.training.prep import prepare_graph
import references

CASES = [
    # (generator, arch, workers, seed)
    ("erdos", "gcn", 2, 0),
    ("erdos", "gat", 3, 1),
    ("locality", "gcn", 4, 2),
    ("locality", "gin", 2, 3),
    ("community", "gcn", 3, 4),
    ("community", "gat", 4, 5),
    ("star", "gcn", 2, 6),
    ("chain", "gin", 3, 7),
]


def make_graph(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(24, 80))
    if kind == "erdos":
        g = generators.erdos_renyi(n, n * 4, seed=seed)
    elif kind == "locality":
        g = generators.locality_graph(n, n * 5, seed=seed)
    elif kind == "community":
        g = generators.community(n, 3, 5.0, seed=seed)
    elif kind == "star":
        g = references.star(n - 1, inward=True)
    else:
        g = generators.chain(n)
    generators.attach_features(g, 6, 3, seed=seed + 1)
    return g


@pytest.mark.parametrize("kind,arch,workers,seed", CASES)
def test_random_config_equivalence(kind, arch, workers, seed):
    graph = prepare_graph(make_graph(kind, seed), arch)
    cluster = ClusterSpec.ecs(workers)
    reference = None
    for engine_cls in [DepCommEngine, DepCacheEngine, HybridEngine]:
        model = GNNModel.build(arch, graph.feature_dim, 5, graph.num_classes,
                               seed=99)
        engine = engine_cls(graph, model, cluster)
        report = engine.run_epoch()
        grads = [p.grad.copy() for p in model.parameters()]
        if reference is None:
            reference = (report.loss, grads)
        else:
            assert report.loss == pytest.approx(reference[0], rel=1e-4), (
                kind, arch, engine_cls.name
            )
            for ga, gb in zip(reference[1], grads):
                assert np.allclose(ga, gb, atol=1e-4), (
                    kind, arch, engine_cls.name
                )
