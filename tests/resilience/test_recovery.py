"""Crash detection, rollback-restart recovery, and zero-cost guarantees."""

import numpy as np
import pytest

from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.resilience import (
    FaultSchedule,
    RecoveryPolicy,
    WorkerCrashError,
    WorkerCrashFault,
)
from repro.resilience.engine_recovery import (
    recover_from_crash,
    reprovision_bytes,
)
from repro.training import DistributedTrainer, ResilientTrainer

EPOCHS = 6


def build(small_graph, cluster, engine_name="depcomm", faults=None, seed=7):
    model = GNNModel.build(
        "gcn", small_graph.feature_dim, 12, small_graph.num_classes, seed=seed
    )
    if faults is not None:
        cluster = cluster.with_faults(faults)
    return make_engine(engine_name, small_graph, model, cluster)


def params_of(engine):
    return [p.data.copy() for p in engine.model.parameters()]


class TestCrashDetection:
    def test_crash_surfaces_at_barrier(self, small_graph, cluster2):
        engine = build(
            small_graph, cluster2,
            faults=FaultSchedule([WorkerCrashFault(worker=1, at_time=0.0)]),
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            engine.run_epoch()
        assert excinfo.value.fault.worker == 1
        assert excinfo.value.detected_at_s >= 0.0

    def test_recover_charges_timeline(self, small_graph, cluster2):
        engine = build(
            small_graph, cluster2,
            faults=FaultSchedule([WorkerCrashFault(worker=1, at_time=0.0)]),
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            engine.run_epoch()
        t_before = engine.timeline.makespan
        recovery_s, refetch = recover_from_crash(engine, excinfo.value)
        assert recovery_s > 0
        assert refetch > 0
        assert engine.timeline.makespan == pytest.approx(
            t_before + recovery_s
        )
        # The crash is consumed: the next epoch runs through.
        engine.run_epoch()

    def test_depcache_refetches_more_than_depcomm(self, small_graph, cluster2):
        refetch = {}
        for name in ("depcache", "depcomm"):
            engine = build(small_graph, cluster2, engine_name=name)
            engine.plan()
            refetch[name] = reprovision_bytes(engine, 0)
        assert refetch["depcache"] > refetch["depcomm"]


class TestResilientTrainer:
    def test_crashed_run_matches_clean_trajectory(self, small_graph, cluster2):
        """Rollback-restart replays to the exact clean-run parameters."""
        clean_engine = build(small_graph, cluster2)
        clean = DistributedTrainer(clean_engine, lr=0.05)
        clean_history = clean.train(EPOCHS)
        clean_params = params_of(clean_engine)
        crash_t = clean_history.avg_epoch_time_s * 2.5

        engine = build(
            small_graph, cluster2,
            faults=FaultSchedule([
                WorkerCrashFault(worker=1, at_time=crash_t)
            ]),
        )
        trainer = ResilientTrainer(
            engine, policy=RecoveryPolicy(checkpoint_every=2), lr=0.05
        )
        history = trainer.train(EPOCHS)

        assert len(trainer.recoveries) == 1
        event = trainer.recoveries[0]
        assert event.worker == 1
        assert event.rolled_back_to_epoch == 2
        assert event.recovery_s > 0
        # Bit-identical final parameters (optimizer state checkpointed) ...
        for got, want in zip(params_of(engine), clean_params):
            np.testing.assert_array_equal(got, want)
        # ... and the same loss trajectory, epoch for epoch.
        assert [r.loss for r in history.reports] == [
            r.loss for r in clean_history.reports
        ]
        assert [r.epoch for r in history.reports] == list(range(1, EPOCHS + 1))
        # Only the modeled clock shows the damage.
        assert engine.timeline.makespan > clean_engine.timeline.makespan

    def test_without_faults_identical_to_plain_trainer(
        self, small_graph, cluster2
    ):
        plain_engine = build(small_graph, cluster2)
        plain = DistributedTrainer(plain_engine, lr=0.05).train(EPOCHS)
        res_engine = build(small_graph, cluster2)
        resilient = ResilientTrainer(res_engine, lr=0.05).train(EPOCHS)
        assert [r.loss for r in resilient.reports] == [
            r.loss for r in plain.reports
        ]
        assert [r.epoch_time_s for r in resilient.reports] == [
            r.epoch_time_s for r in plain.reports
        ]
        for got, want in zip(params_of(res_engine), params_of(plain_engine)):
            np.testing.assert_array_equal(got, want)

    def test_max_recoveries_reraises(self, small_graph, cluster2):
        engine = build(
            small_graph, cluster2,
            faults=FaultSchedule([WorkerCrashFault(worker=0, at_time=0.0)]),
        )
        trainer = ResilientTrainer(
            engine, policy=RecoveryPolicy(max_recoveries=0)
        )
        with pytest.raises(WorkerCrashError):
            trainer.train(3)

class TestZeroCost:
    def test_empty_schedule_bit_identical_to_no_schedule(
        self, small_graph, cluster2
    ):
        """The resilience layer must cost nothing when disabled."""
        plain = build(small_graph, cluster2)
        gated = build(small_graph, cluster2, faults=FaultSchedule())
        assert gated.faults is None  # empty schedule -> clean code path
        for _ in range(3):
            a = plain.run_epoch()
            b = gated.run_epoch()
            assert a.epoch_time_s == b.epoch_time_s  # bit-identical
            assert a.loss == b.loss
        assert plain.timeline.makespan == gated.timeline.makespan

    def test_charge_epoch_identical_all_engines(self, small_graph, cluster4):
        for name in ("depcache", "depcomm", "hybrid"):
            plain = build(small_graph, cluster4, engine_name=name)
            gated = build(
                small_graph, cluster4, engine_name=name,
                faults=FaultSchedule(),
            )
            assert plain.charge_epoch() == gated.charge_epoch(), name
