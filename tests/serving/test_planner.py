"""Per-request dependency planning."""

import pytest

from repro.core.model import GNNModel
from repro.costmodel.probe import probe_constants
from repro.graph.khop import khop_closure
from repro.partition.chunk import chunk_partition
from repro.partition.hashing import hash_partition
from repro.serving.planner import RequestPlanner


@pytest.fixture
def planner_parts(small_graph, cluster4):
    model = GNNModel.build(
        "gcn", small_graph.feature_dim, 12, small_graph.num_classes, seed=7
    )
    constants = probe_constants(cluster4, model)
    partitioning = hash_partition(small_graph, 4)
    return small_graph, model, constants, partitioning, cluster4


def build(planner_parts, mode="auto", num_parts=None):
    graph, model, constants, partitioning, cluster = planner_parts
    if num_parts is not None:
        partitioning = chunk_partition(graph, num_parts)
    return RequestPlanner(
        graph, partitioning, constants, model.num_layers,
        cluster.network, mode=mode,
    )


class TestProfiles:
    def test_profile_is_memoized(self, planner_parts):
        planner = build(planner_parts)
        assert planner.profile(3) is planner.profile(3)

    def test_profile_shape(self, planner_parts):
        graph, model, _, partitioning, _ = planner_parts
        planner = build(planner_parts)
        p = planner.profile(5)
        assert p.vertex == 5
        assert p.owner == partitioning.owner(5)
        # The compute layers only: the input set is not kept.
        assert len(p.vertex_layers) == model.num_layers
        assert list(p.vertex_layers[0]) == [5]
        assert p.local_cost_s > 0
        assert p.remote_cost_s > 0
        assert len(p.vertex_layers[-1]) >= 1

    def test_single_partition_prefers_local(self, planner_parts):
        """With one owner there is no compute to spread and no boundary
        to cross, so remote pays pure latency overhead."""
        planner = build(planner_parts, num_parts=1)
        p = planner.profile(0)
        # Every layer's compute and edges sit on the one part, and no
        # input crosses a boundary: remote is local plus latency only.
        L = planner.num_layers
        vertex_layers, edge_layers = khop_closure(planner.graph, [0], L)
        remote = 0.0
        for l in range(1, L + 1):
            remote += planner.constants.vertex_cost(l) * len(vertex_layers[L - l])
            remote += planner.constants.edge_cost(l) * len(edge_layers[L - l])
            remote += planner.constants.comm_cost(l) * 0
            remote += 2.0 * planner.network.latency_s
        assert p.remote_cost_s.hex() == remote.hex()
        assert p.local_cost_s <= p.remote_cost_s


class TestChoice:
    def test_forced_modes_override_costs(self, planner_parts):
        assert build(planner_parts, mode="local").choose_batch([2]) == "local"
        assert build(planner_parts, mode="remote").choose_batch([2]) == "remote"
        assert build(planner_parts, mode="local").choose_batch([1, 2]) == "local"

    def test_auto_matches_preferred_mode(self, planner_parts):
        planner = build(planner_parts)
        for v in range(8):
            p = planner.profile(v)
            cheaper = "local" if p.local_cost_s <= p.remote_cost_s else "remote"
            assert planner.choose_batch([v]) == cheaper

    def test_choose_batch_sums_estimates(self, planner_parts):
        planner = build(planner_parts)
        vertices = [0, 1, 2, 3]
        local = sum(planner.profile(v).local_cost_s for v in vertices)
        remote = sum(planner.profile(v).remote_cost_s for v in vertices)
        expected = "local" if local <= remote else "remote"
        assert planner.choose_batch(vertices) == expected

    def test_rejects_unknown_mode(self, planner_parts):
        with pytest.raises(ValueError):
            build(planner_parts, mode="psychic")

    def test_rejects_cached_mode(self, planner_parts):
        """"cached" is how a request was served, never how one is planned
        (``ServingConfig`` rejects it too)."""
        with pytest.raises(ValueError, match="mode must be one of"):
            build(planner_parts, mode="cached")

    def test_rejects_zero_layers(self, planner_parts):
        graph, _, constants, partitioning, cluster = planner_parts
        with pytest.raises(ValueError):
            RequestPlanner(graph, partitioning, constants, 0, cluster.network)
