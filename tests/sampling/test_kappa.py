"""Batch dependency (kappa): zero-cost default, reuse, monotonicity."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model import GNNModel
from repro.sampling import ReuseState, SampledTrainingEngine, make_sampler
from repro.training.prep import prepare_graph

KAPPA_GRID = (0.0, 0.3, 0.6, 1.0)


@pytest.fixture
def graph(small_graph):
    return prepare_graph(small_graph, "gcn")


def _engine(graph, cluster, *, sampler="uniform", kappa=0.0, seed=0,
            batch_size=8):
    model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=1)
    return SampledTrainingEngine(
        graph, model, cluster, fanouts=(3, 5), batch_size=batch_size,
        sampler=sampler, kappa=kappa, seed=seed,
    )


class TestKappaZero:
    def test_state_is_inert_at_kappa_zero(self, graph):
        """kappa=0 must be bit-identical to fully independent batches:
        threading a ReuseState through changes nothing."""
        sampler = make_sampler("uniform", (3, 5), seed=0)
        state = ReuseState()
        seeds_a, seeds_b = np.arange(12), np.arange(6, 20)
        independent = [
            make_sampler("uniform", (3, 5), seed=0).sample_batch(
                graph, {0: s}, batch=i
            )[0]
            for i, s in enumerate((seeds_a, seeds_b))
        ]
        threaded = [
            sampler.sample_batch(
                graph, {0: s}, batch=i, kappa=0.0, state={0: state}
            )[0]
            for i, s in enumerate((seeds_a, seeds_b))
        ]
        for a, b in zip(independent, threaded):
            assert a.frontier_sizes == b.frontier_sizes
            for ba, bb in zip(a.blocks, b.blocks):
                assert np.array_equal(ba.edge_src_global, bb.edge_src_global)
                assert np.array_equal(ba.edge_ids, bb.edge_ids)
            assert b.reused_vertices == 0

    def test_engine_kappa_zero_matches_engine_default(self, graph, cluster2):
        a = _engine(graph, cluster2, kappa=0.0)
        b = _engine(graph, cluster2)
        assert a.charge_epoch() == b.charge_epoch()
        assert a.last_epoch_stats["comm_bytes"] == \
            b.last_epoch_stats["comm_bytes"]
        assert a.last_epoch_stats["reused_rows"] == 0


class TestReuse:
    def test_kappa_one_reuses_lists(self, graph, cluster2):
        engine = _engine(graph, cluster2, kappa=1.0)
        engine.charge_epoch()
        stats = engine.last_epoch_stats
        assert stats["reused_rows"] > 0
        assert stats["saved_bytes"] > 0

    def test_reused_lists_are_replayed_verbatim(self, graph):
        """A vertex that reuses serves the previous batch's realized
        neighbor list, edge for edge."""
        sampler = make_sampler("uniform", (3, 5), seed=0)
        state = ReuseState()
        first = sampler.sample_batch(
            graph, {0: np.arange(12)}, batch=0, kappa=1.0, state={0: state}
        )[0]
        second = sampler.sample_batch(
            graph, {0: np.arange(12)}, batch=1, kappa=1.0, state={0: state}
        )[0]
        assert second.reused_vertices > 0
        bottom_first, bottom_second = first.blocks[0], second.blocks[0]
        for v in bottom_second.compute_vertices:
            pos_2 = np.flatnonzero(
                bottom_second.compute_vertices == v
            )[0]
            in_first = np.flatnonzero(bottom_first.compute_vertices == v)
            if not len(in_first):
                continue
            eids_1 = np.sort(
                bottom_first.edge_ids[bottom_first.edge_dst_pos == in_first[0]]
            )
            eids_2 = np.sort(
                bottom_second.edge_ids[bottom_second.edge_dst_pos == pos_2]
            )
            assert np.array_equal(eids_1, eids_2)


class TestMonotonicity:
    @pytest.mark.parametrize("sampler", ["uniform", "labor"])
    def test_comm_bytes_monotone_on_grid(self, graph, cluster2, sampler):
        volumes = []
        for kappa in KAPPA_GRID:
            engine = _engine(graph, cluster2, sampler=sampler, kappa=kappa)
            engine.charge_epoch()
            volumes.append(engine.last_epoch_stats["comm_bytes"])
        assert all(a >= b for a, b in zip(volumes, volumes[1:])), volumes
        assert volumes[-1] < volumes[0], volumes

    # The graph/cluster fixtures are read-only; engines never mutate them.
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=40),
        lo=st.sampled_from(KAPPA_GRID[:-1]),
        hi=st.sampled_from(KAPPA_GRID[1:]),
        sampler=st.sampled_from(["uniform", "labor"]),
    )
    def test_raising_kappa_never_adds_comm(
        self, graph, cluster2, seed, lo, hi, sampler
    ):
        if lo > hi:
            lo, hi = hi, lo
        a = _engine(graph, cluster2, sampler=sampler, kappa=lo, seed=seed)
        b = _engine(graph, cluster2, sampler=sampler, kappa=hi, seed=seed)
        a.charge_epoch()
        b.charge_epoch()
        assert (
            b.last_epoch_stats["comm_bytes"]
            <= a.last_epoch_stats["comm_bytes"]
        )
