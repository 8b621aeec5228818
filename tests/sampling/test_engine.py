"""SampledTrainingEngine: IR compilation, determinism, caching."""

import itertools

import numpy as np
import pytest

from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.sampling import (
    LegacyStreamSampler,
    SampledTrainingEngine,
    describe_sampled_batches,
    render_sampled_batches,
)
from repro.tensor import optim
from repro.training.prep import prepare_graph


@pytest.fixture
def graph(small_graph):
    return prepare_graph(small_graph, "gcn")


def _engine(graph, cluster, **kwargs):
    kwargs.setdefault("fanouts", (3, 5))
    kwargs.setdefault("batch_size", 8)
    kwargs.setdefault("seed", 0)
    model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=1)
    return SampledTrainingEngine(graph, model, cluster, **kwargs)


class TestCompiledProgram:
    def test_gather_step_accounts_every_input(
        self, graph, cluster2, check_layer_program
    ):
        engine = _engine(graph, cluster2)
        rounds = engine.rounds(engine.sampler, shuffle=False)
        for _, _, _, program, _ in itertools.islice(rounds, 2):
            assert program.layers, "no layers compiled"
            for lp in program.layers:
                check_layer_program(lp)

    def test_only_bottom_layer_exchanges(self, graph, cluster2):
        engine = _engine(graph, cluster2)
        desc = describe_sampled_batches(engine, num_batches=1)
        layers = desc["rounds"][0]["layers"]
        assert layers[0]["exchange_bytes"] > 0
        for upper in layers[1:]:
            assert upper["exchange_bytes"] == 0

    def test_overlap_pass_applies_to_sampled_programs(self, graph, cluster2):
        engine = _engine(
            graph, cluster2, program_passes=("overlap-exchange",)
        )
        desc = describe_sampled_batches(engine, num_batches=1)
        assert "overlap-exchange" in desc["rounds"][0]["passes"]

    def test_render_mentions_every_worker(self, graph, cluster2):
        engine = _engine(graph, cluster2)
        text = render_sampled_batches(engine, num_batches=1)
        assert "sampled program" in text
        assert "worker 0" in text and "worker 1" in text

    def test_dry_run_leaves_engine_untouched(self, graph, cluster2):
        a = _engine(graph, cluster2)
        b = _engine(graph, cluster2)
        describe_sampled_batches(a, num_batches=2)
        assert a.charge_epoch() == b.charge_epoch()


class TestDeterminism:
    def test_repeated_runs_bit_identical(self, graph, cluster2):
        reports = []
        for _ in range(2):
            engine = _engine(graph, cluster2)
            opt = optim.Adam(engine.model.parameters(), lr=0.01)
            reports.append([engine.run_epoch(opt) for _ in range(3)])
        a, b = reports
        assert [r.loss for r in a] == [r.loss for r in b]
        assert [r.epoch_time_s for r in a] == [r.epoch_time_s for r in b]

    def test_charge_epoch_matches_run_epoch_time(self, graph, cluster2):
        a = _engine(graph, cluster2)
        b = _engine(graph, cluster2)
        opt = optim.Adam(b.model.parameters(), lr=0.01)
        charged = a.charge_epoch()
        # run_epoch shuffles batches; charge_epoch keeps partition
        # order, so times agree only in distribution -- but both
        # engines must produce strictly positive, finite charges.
        ran = b.run_epoch(opt).epoch_time_s
        assert charged > 0 and np.isfinite(charged)
        assert ran > 0 and np.isfinite(ran)


class TestFeatureCache:
    def test_pinned_rows_monotone_in_capacity(self, graph, cluster2):
        pinned = []
        for mb in (0, 1 / 1024, 4 / 1024, 1):
            engine = _engine(
                graph, cluster2,
                feature_cache_bytes=int(mb * 1024 * 1024),
            )
            engine.charge_epoch()
            pinned.append(engine.last_epoch_stats["pinned_rows"])
        assert pinned[0] == 0
        assert all(a <= b for a, b in zip(pinned, pinned[1:])), pinned
        assert pinned[-1] > 0

    def test_cache_reduces_charged_time(self, graph, cluster2):
        cold = _engine(graph, cluster2)
        hot = _engine(graph, cluster2, feature_cache_bytes=1 << 20)
        assert hot.charge_epoch() <= cold.charge_epoch()


class TestEngineSurface:
    def test_registered_with_make_engine(self, graph, cluster2):
        engine = make_engine(
            "sampled", graph,
            GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=1),
            cluster2, fanouts=(3, 5), batch_size=8,
        )
        assert isinstance(engine, SampledTrainingEngine)
        assert engine.plan() is None

    def test_fanout_arity_checked(self, graph, cluster2):
        with pytest.raises(ValueError, match="fanout"):
            _engine(graph, cluster2, fanouts=(3,))

    def test_kappa_range_checked(self, graph, cluster2):
        with pytest.raises(ValueError, match="kappa"):
            _engine(graph, cluster2, kappa=1.5)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_checked(self, graph, cluster2, batch_size):
        # 0 used to die inside range(); -1 trained on zero batches and
        # reported a 0.0 s epoch with loss 0.0.
        with pytest.raises(ValueError, match="batch_size"):
            _engine(graph, cluster2, batch_size=batch_size)

    def test_legacy_rng_excludes_kappa(self, graph, cluster2):
        engine = _engine(
            graph, cluster2, kappa=0.5,
            sampler=LegacyStreamSampler((3, 5), seed=0),
        )
        with pytest.raises(ValueError, match="kappa"):
            engine.charge_epoch()

    def test_misspelt_kwargs_are_rejected(self, graph, cluster2):
        # ``fanout`` / ``batchsize`` used to vanish into ``**_ignored``
        # and the run trained with the defaults instead.
        model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=1)
        with pytest.raises(TypeError, match="fanout"):
            make_engine("sampled", graph, model, cluster2, fanout=(3, 5))
        with pytest.raises(TypeError, match="batchsize"):
            make_engine("sampled", graph, model, cluster2, batchsize=7)

    def test_respawn_accepts_the_inherited_kwargs(self, graph, cluster2):
        for name in ("sampled", "distdgl"):
            model = GNNModel.gcn(
                graph.feature_dim, 12, graph.num_classes, seed=1
            )
            engine = make_engine(name, graph, model, cluster2)
            clone = engine.respawn(cluster2, engine.partitioning)
            assert type(clone.sampler) is type(engine.sampler)
            assert clone.rpc_accounting == engine.rpc_accounting

    def test_training_reduces_loss_and_evaluates(self, graph, cluster2):
        engine = _engine(graph, cluster2)
        opt = optim.Adam(engine.model.parameters(), lr=0.02)
        first = engine.run_epoch(opt).loss
        for _ in range(6):
            last = engine.run_epoch(opt).loss
        assert last < first
        accuracy = engine.evaluate(graph.test_mask)
        assert 0.0 <= accuracy <= 1.0

    def test_last_epoch_stats_populated(self, graph, cluster2):
        engine = _engine(graph, cluster2)
        assert engine.last_epoch_stats is None
        engine.charge_epoch()
        stats = engine.last_epoch_stats
        assert stats["num_batches"] > 0
        assert stats["sampled_edges"] > 0
        assert stats["comm_bytes"] > 0
        assert stats["unique_remote"] > 0

    def test_plan_reset_between_epochs(self, graph, cluster2):
        engine = _engine(graph, cluster2)
        engine.charge_epoch()
        assert engine.plan_ is None and engine.program_ is None

    @pytest.mark.parametrize("sampler", ["labor", "ladies"])
    def test_alternative_samplers_train(self, graph, cluster2, sampler):
        engine = _engine(graph, cluster2, sampler=sampler)
        opt = optim.Adam(engine.model.parameters(), lr=0.01)
        report = engine.run_epoch(opt)
        assert report.loss > 0
        assert report.epoch_time_s > 0
