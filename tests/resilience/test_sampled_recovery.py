"""Crash recovery for sampling engines: sampler state rides checkpoints.

The keyed ``sampled`` engine draws every mini-batch as a pure function
of ``(seed, epoch, batch)``, so rollback is free; the ``distdgl``
facade draws from one sequential legacy stream, so the resilient
trainer must checkpoint and restore the generator state or the
replayed epochs sample different neighborhoods and the "bit-identical
recovery" guarantee silently breaks.  Both paths are pinned here
against an uninterrupted run.
"""

import numpy as np
import pytest

from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.resilience import (
    ClusterHealthMonitor,
    FaultSchedule,
    RecoveryPolicy,
    StragglerFault,
    WorkerCrashFault,
    run_chaos,
)
from repro.resilience.engine_recovery import reprovision_bytes
from repro.training import DistributedTrainer, ResilientTrainer

EPOCHS = 6
SAMPLING_KWARGS = {"fanouts": (4, 4), "batch_size": 16}


def build(small_graph, cluster, engine_name, faults=None, seed=7):
    model = GNNModel.build(
        "gcn", small_graph.feature_dim, 12, small_graph.num_classes, seed=seed
    )
    if faults is not None:
        cluster = cluster.with_faults(faults)
    return make_engine(
        engine_name, small_graph, model, cluster, **SAMPLING_KWARGS
    )


def params_of(engine):
    return [p.data.copy() for p in engine.model.parameters()]


@pytest.mark.parametrize("engine_name", ["sampled", "distdgl"])
class TestSampledCrashRecovery:
    def test_crashed_run_matches_clean_trajectory(
        self, small_graph, cluster2, engine_name
    ):
        clean_engine = build(small_graph, cluster2, engine_name)
        clean = DistributedTrainer(clean_engine, lr=0.05)
        clean_history = clean.train(EPOCHS)
        clean_params = params_of(clean_engine)
        crash_t = clean_history.avg_epoch_time_s * 2.5

        engine = build(
            small_graph, cluster2, engine_name,
            faults=FaultSchedule([
                WorkerCrashFault(worker=1, at_time=crash_t)
            ]),
        )
        trainer = ResilientTrainer(
            engine, policy=RecoveryPolicy(checkpoint_every=2), lr=0.05
        )
        history = trainer.train(EPOCHS)

        assert len(trainer.recoveries) == 1
        for got, want in zip(params_of(engine), clean_params):
            np.testing.assert_array_equal(got, want)
        assert [r.loss for r in history.reports] == [
            r.loss for r in clean_history.reports
        ]

    def test_recovery_keeps_the_feature_aggregates_warm(
        self, small_graph, cluster2, engine_name
    ):
        """The layer-1 memo depends on neither weights, epoch nor
        sampler state: rollback must not empty it, and the replay over
        the warm store stays bit-identical to a clean run."""
        clean = DistributedTrainer(
            build(small_graph, cluster2, engine_name), lr=0.05
        ).train(EPOCHS)
        engine = build(
            small_graph, cluster2, engine_name,
            faults=FaultSchedule([WorkerCrashFault(
                worker=1, at_time=clean.avg_epoch_time_s * 2.5
            )]),
        )
        store = engine.feature_aggregates
        known_at_rollback = []
        rollback = engine.rollback_to_epoch

        def spy(epoch):
            known_at_rollback.append(int(store._known.sum()))
            rollback(epoch)

        engine.rollback_to_epoch = spy
        trainer = ResilientTrainer(
            engine, policy=RecoveryPolicy(checkpoint_every=2), lr=0.05
        )
        history = trainer.train(EPOCHS)

        assert len(trainer.recoveries) == 1
        assert len(known_at_rollback) == 1 and known_at_rollback[0] > 0
        assert engine.feature_aggregates is store
        assert int(store._known.sum()) >= known_at_rollback[0]
        assert store.rows_memoised > 0
        assert [r.loss.hex() for r in history.reports] == [
            r.loss.hex() for r in clean.reports
        ]

    def test_sampler_state_round_trips(
        self, small_graph, cluster2, engine_name
    ):
        engine = build(small_graph, cluster2, engine_name)
        trainer = DistributedTrainer(engine, lr=0.05)
        trainer.train(2)
        state = engine.sampler_state()
        assert state["epoch"] == 2

        probe = build(small_graph, cluster2, engine_name)
        DistributedTrainer(probe, lr=0.05).train(2)
        probe.load_sampler_state(state)
        # With the state restored, epoch 3 samples identically even on
        # the legacy sequential stream.
        a = DistributedTrainer(engine, lr=0.05).train(1)
        b = DistributedTrainer(probe, lr=0.05).train(1)
        assert [r.loss for r in a.reports] == [r.loss for r in b.reports]


class TestSampledChaos:
    """``repro chaos --engine sampled`` paths: planless engines must
    survive reprovisioning and elastic shrink."""

    def _chaos(self, small_graph, cluster2, mode, recovery):
        def model_factory():
            return GNNModel.build(
                "gcn", small_graph.feature_dim, 12,
                small_graph.num_classes, seed=7,
            )

        return run_chaos(
            "sampled", small_graph, model_factory, cluster2,
            FaultSchedule([WorkerCrashFault(worker=1, at_time=0.001)]),
            epochs=4, mode=mode, recovery=recovery, lr=0.05,
            **SAMPLING_KWARGS,
        )

    @pytest.mark.parametrize("recovery", ["restart", "shrink"])
    def test_timing_mode_recovers(self, small_graph, cluster2, recovery):
        report = self._chaos(small_graph, cluster2, "timing", recovery)
        assert len(report.recoveries) == 1
        assert report.degradation > 1.0
        if recovery == "shrink":
            # 2 -> 1 workers: the lone survivor already holds the
            # durable shard, so no inter-worker bytes move.
            assert report.num_workers_final == 1
        else:
            assert report.recoveries[0].refetch_bytes > 0

    def test_train_mode_restart_matches_clean_loss(
        self, small_graph, cluster2
    ):
        report = self._chaos(small_graph, cluster2, "train", "restart")
        assert len(report.recoveries) == 1
        # The crashed run replays to the same trained loss as a clean
        # trainer over the same engine (bit-identity is pinned above).
        clean_engine = build(small_graph, cluster2, "sampled")
        clean = DistributedTrainer(clean_engine, lr=0.05).train(4)
        assert report.final_loss == clean.reports[-1].loss

    def test_reprovision_without_plan_counts_all_state(
        self, small_graph, cluster2
    ):
        engine = build(small_graph, cluster2, "sampled")
        assert engine.plan() is None
        refetch = reprovision_bytes(engine, 0)
        owned = len(engine.partitioning.part(0))
        expected = (
            owned * small_graph.feature_dim * 4
            + engine.model.parameter_bytes()
        )
        assert refetch == expected


def test_sampled_engine_replans_under_health_monitor(small_graph, cluster2):
    """A sampled engine has no static plan (``plan()`` is None); drift
    reported by the monitor must still re-plan -- store the overrides,
    barrier -- instead of dereferencing the missing plan."""
    engine = build(
        small_graph, cluster2, "sampled",
        faults=FaultSchedule([
            StragglerFault(worker=0, gpu_factor=8.0, cpu_factor=8.0)
        ]),
    )
    trainer = ResilientTrainer(
        engine, lr=0.05,
        health_monitor=ClusterHealthMonitor(2, alpha=0.8, drift_threshold=0.1),
    )
    history = trainer.train(4)
    assert len(history.reports) == 4
    assert trainer.replans >= 1
    assert set(engine.constants_overrides) == {0, 1}
    assert engine.replan() is None
