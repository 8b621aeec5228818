"""Greedy (Algorithm 4) vs the exhaustive oracle on tiny instances."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.costmodel.oracle import greedy_cost, oracle_partition
from repro.costmodel.partitioner import partition_dependencies
from repro.costmodel.probe import probe_constants
from repro.graph import generators
from repro.partition.chunk import chunk_partition
import references


def tiny_setting(seed, n=24, deg=2.0):
    g = generators.locality_graph(
        n, int(n * deg), locality_width=0.1, global_fraction=0.3, seed=seed
    )
    model = GNNModel.gcn(8, 4, 2)
    partitioning = chunk_partition(g, 3)
    constants = probe_constants(ClusterSpec.ecs(3), model)
    return g, model, partitioning, constants


class TestOracle:
    def test_oracle_never_worse_than_greedy(self):
        for seed in range(5):
            g, model, partitioning, constants = tiny_setting(seed)
            try:
                oracle = oracle_partition(
                    g, partitioning, 0, model.dims(), constants
                )
            except ValueError:
                continue  # too many deps for this seed
            greedy = partition_dependencies(
                g, partitioning, 0, model.dims(), constants
            )
            g_cost = greedy_cost(
                g, partitioning, 0, model.dims(), constants, greedy.cached
            )
            assert oracle.total_cost_s <= g_cost + 1e-12, seed

    def test_greedy_within_factor_of_oracle(self):
        """Algorithm 4 stays close to optimal on small instances."""
        gaps = []
        for seed in range(8):
            g, model, partitioning, constants = tiny_setting(seed)
            try:
                oracle = oracle_partition(
                    g, partitioning, 1, model.dims(), constants
                )
            except ValueError:
                continue
            greedy = partition_dependencies(
                g, partitioning, 1, model.dims(), constants
            )
            g_cost = greedy_cost(
                g, partitioning, 1, model.dims(), constants, greedy.cached
            )
            if oracle.total_cost_s > 0:
                gaps.append(g_cost / oracle.total_cost_s)
        assert gaps, "no feasible oracle instances"
        assert max(gaps) < 1.5

    def test_oracle_partitions_cover_deps(self):
        g, model, partitioning, constants = tiny_setting(2)
        from repro.graph.khop import dependency_layers
        oracle = oracle_partition(g, partitioning, 0, model.dims(), constants)
        deps = dependency_layers(g, partitioning.part(0), 2)
        for l in range(2):
            merged = np.union1d(oracle.cached[l], oracle.communicated[l])
            assert np.array_equal(merged, deps[l])

    def test_memory_limit_respected(self):
        g, model, partitioning, constants = tiny_setting(3)
        unlimited = oracle_partition(
            g, partitioning, 0, model.dims(), constants
        )
        starved = oracle_partition(
            g, partitioning, 0, model.dims(), constants,
            memory_limit_bytes=64,
        )
        starved_cached = sum(len(c) for c in starved.cached)
        unlimited_cached = sum(len(c) for c in unlimited.cached)
        assert starved_cached <= unlimited_cached
        assert starved.total_cost_s >= unlimited.total_cost_s

    def test_too_many_deps_rejected(self):
        g = references.complete(20)
        model = GNNModel.gcn(8, 4, 2)
        partitioning = chunk_partition(g, 2)
        constants = probe_constants(ClusterSpec.ecs(2), model)
        with pytest.raises(ValueError, match="oracle infeasible"):
            oracle_partition(g, partitioning, 0, model.dims(), constants)

    def test_subsets_counted(self):
        g, model, partitioning, constants = tiny_setting(0)
        oracle = oracle_partition(g, partitioning, 0, model.dims(), constants)
        assert oracle.subsets_evaluated >= 1
