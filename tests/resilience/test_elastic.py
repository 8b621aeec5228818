"""Elastic degraded-mode training: shrink, rejoin, and reassignment."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.partition import absorb_partition, get_partitioner
from repro.resilience import (
    FaultSchedule,
    LinkDegradationFault,
    RecoveryPolicy,
    StragglerFault,
    WorkerCrashError,
    WorkerCrashFault,
    rejoin_engine,
    run_chaos,
    shrink_engine,
)
from repro.training import DistributedTrainer, ResilientTrainer

EPOCHS = 6


def build(graph, cluster, engine_name="depcomm", faults=None, seed=7):
    model = GNNModel.build(
        "gcn", graph.feature_dim, 12, graph.num_classes, seed=seed
    )
    if faults is not None:
        cluster = cluster.with_faults(faults)
    return make_engine(engine_name, graph, model, cluster)


def params_of(engine):
    return [p.data.copy() for p in engine.model.parameters()]


def permanent_crash(worker=1, at_time=0.0):
    return FaultSchedule([
        WorkerCrashFault(worker=worker, at_time=at_time, permanent=True)
    ])


class TestAbsorbPartition:
    def test_moves_exactly_the_dead_partition(self, small_graph):
        partitioning = get_partitioner("chunk")(small_graph, 4)
        plan, shrunk = absorb_partition(partitioning, 1)
        assert plan.dead_worker == 1
        assert shrunk.num_parts == 3
        np.testing.assert_array_equal(
            np.sort(plan.moved), np.sort(partitioning.part(1))
        )
        # Every vertex is still owned exactly once.
        total = sum(len(shrunk.part(w)) for w in range(3))
        assert total == small_graph.num_vertices

    def test_deterministic(self, small_graph):
        partitioning = get_partitioner("chunk")(small_graph, 4)
        plan_a, shrunk_a = absorb_partition(partitioning, 2)
        plan_b, shrunk_b = absorb_partition(partitioning, 2)
        np.testing.assert_array_equal(plan_a.moved, plan_b.moved)
        np.testing.assert_array_equal(plan_a.targets, plan_b.targets)
        np.testing.assert_array_equal(shrunk_a.assignment, shrunk_b.assignment)

    def test_balance_greedy_prefers_lighter_survivors(self, small_graph):
        partitioning = get_partitioner("chunk")(small_graph, 4)
        plan, shrunk = absorb_partition(partitioning, 0)
        sizes = [len(shrunk.part(w)) for w in range(3)]
        # The greedy deals to the least-loaded survivor, so the spread
        # can only shrink or stay put relative to dumping on one worker.
        assert max(sizes) - min(sizes) <= max(
            len(partitioning.part(w)) for w in range(4)
        )

    def test_survivor_renumbering_preserves_order(self, small_graph):
        partitioning = get_partitioner("chunk")(small_graph, 4)
        plan, _ = absorb_partition(partitioning, 1)
        assert plan.worker_map == {0: 0, 2: 1, 3: 2}
        assert plan.old_id(2) == 3

    def test_rejects_single_worker(self, small_graph):
        partitioning = get_partitioner("chunk")(small_graph, 1)
        with pytest.raises(ValueError):
            absorb_partition(partitioning, 0)


class TestScheduleRemap:
    def test_faults_follow_their_workers(self):
        schedule = FaultSchedule([
            StragglerFault(worker=3, gpu_factor=2.0),
            WorkerCrashFault(worker=2, at_time=1.0),
        ])
        remapped = schedule.remap_workers({0: 0, 2: 1, 3: 2})
        workers = sorted(f.worker for f in remapped.faults)
        assert workers == [1, 2]

    def test_faults_on_removed_workers_drop(self):
        schedule = FaultSchedule([
            StragglerFault(worker=1, gpu_factor=2.0),
            LinkDegradationFault(src=1, dst=0, bandwidth_factor=2.0),
            LinkDegradationFault(src=None, dst=3, bandwidth_factor=2.0),
        ])
        remapped = schedule.remap_workers({0: 0, 2: 1, 3: 2})
        # Straggler on 1 and the link touching 1 are gone; the wildcard
        # link survives with its concrete endpoint renumbered.
        assert len(remapped.faults) == 1
        link = remapped.faults[0]
        assert link.src is None and link.dst == 2

    def test_recovered_bookkeeping_carries_over(self):
        crash = WorkerCrashFault(worker=3, at_time=0.5)
        schedule = FaultSchedule([crash])
        schedule.mark_recovered(crash)
        remapped = schedule.remap_workers({0: 0, 1: 1, 3: 2})
        assert remapped.pending_crash(1.0) is None


class TestWithoutWorker:
    def test_shrinks_and_remaps_faults(self):
        schedule = FaultSchedule([StragglerFault(worker=3, gpu_factor=2.0)])
        cluster = ClusterSpec.ecs(4).with_faults(schedule)
        shrunk = cluster.without_worker(1)
        assert shrunk.num_workers == 3
        assert shrunk.faults.faults[0].worker == 2

    def test_rejects_bad_worker_and_single_node(self):
        with pytest.raises(ValueError):
            ClusterSpec.ecs(4).without_worker(7)
        with pytest.raises(ValueError):
            ClusterSpec.ecs(1).without_worker(0)


class TestShrinkEngine:
    @pytest.mark.parametrize("engine_name", ["depcache", "depcomm", "hybrid"])
    def test_shrink_reshapes_and_charges_migration(
        self, small_graph, cluster4, engine_name
    ):
        engine = build(
            small_graph, cluster4, engine_name, faults=permanent_crash()
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            engine.run_epoch()
        t_before = engine.timeline.makespan
        new_engine, record, report = shrink_engine(engine, excinfo.value)
        assert new_engine.cluster.num_workers == 3
        assert report.direction == "shrink"
        assert report.seconds > 0
        assert report.migrated_bytes > 0
        assert new_engine.timeline.makespan >= t_before
        # The shared model keeps training valid on the smaller cluster.
        assert new_engine.model is engine.model
        new_engine.run_epoch()

    def test_depcache_pays_closure_churn(self, small_graph, cluster4):
        migrated = {}
        for name in ("depcache", "depcomm"):
            engine = build(
                small_graph, cluster4, name, faults=permanent_crash()
            )
            with pytest.raises(WorkerCrashError) as excinfo:
                engine.run_epoch()
            _, _, report = shrink_engine(engine, excinfo.value)
            migrated[name] = report.migrated_bytes
        assert migrated["depcache"] > migrated["depcomm"]

    def test_rejoin_restores_original_shape(self, small_graph, cluster4):
        engine = build(small_graph, cluster4, faults=permanent_crash())
        with pytest.raises(WorkerCrashError) as excinfo:
            engine.run_epoch()
        shrunk, record, _ = shrink_engine(engine, excinfo.value)
        shrunk.run_epoch()
        grown, report = rejoin_engine(shrunk, record, provision_s=0.02)
        assert grown.cluster.num_workers == 4
        assert report.direction == "rejoin"
        assert report.seconds >= 0.02
        # The rejoined cluster keeps training without re-crashing (the
        # original crash is marked recovered on the restored schedule).
        grown.run_epoch()


def reshaped_reference(graph, cluster4, dead_worker, checkpoint_epoch, epochs):
    """Healthy replay on the reshaped cluster from the same checkpoint.

    Trains ``checkpoint_epoch`` epochs on the full 4-worker cluster,
    then moves model + optimizer onto a healthy 3-worker cluster with
    the absorbed partitioning and finishes the run -- exactly the
    trajectory a shrink recovery must reproduce bit-for-bit.
    """
    engine4 = build(graph, cluster4)
    trainer4 = DistributedTrainer(engine4, lr=0.05)
    trainer4.train(checkpoint_epoch)
    _, shrunk_partitioning = absorb_partition(engine4.partitioning, dead_worker)
    engine3 = make_engine(
        engine4.name, graph, engine4.model,
        cluster4.healthy().without_worker(dead_worker),
        partitioning=shrunk_partitioning,
    )
    trainer3 = DistributedTrainer(engine3, lr=0.05)
    trainer3.optimizer.load_state_dict(trainer4.optimizer.state_dict())
    trainer3.train(epochs - checkpoint_epoch)
    return params_of(engine3)


class TestShrinkTrainer:
    def test_shrink_matches_healthy_reshaped_replay(
        self, small_graph, cluster4
    ):
        """The acceptance bar: shrink-and-continue is bit-identical to
        replaying the same epochs on a healthy reshaped cluster."""
        probe = build(small_graph, cluster4)
        crash_t = probe.charge_epoch() * 2.5  # mid-epoch-3: rolls back to 2

        engine = build(
            small_graph, cluster4,
            faults=permanent_crash(worker=1, at_time=crash_t),
        )
        trainer = ResilientTrainer(
            engine, lr=0.05,
            policy=RecoveryPolicy(checkpoint_every=2, strategy="shrink"),
        )
        history = trainer.train(EPOCHS)
        assert len(trainer.recoveries) == 1
        event = trainer.recoveries[0]
        assert event.strategy == "shrink"
        assert event.num_workers_after == 3
        assert event.rolled_back_to_epoch == 2
        assert trainer.num_workers == 3
        assert len(history.reports) == EPOCHS

        reference = reshaped_reference(
            small_graph, cluster4, dead_worker=1,
            checkpoint_epoch=2, epochs=EPOCHS,
        )
        for ref_p, shrunk_p in zip(reference, params_of(trainer.engine)):
            np.testing.assert_array_equal(ref_p, shrunk_p)

    def test_rejoin_grows_back_to_full_size(self, small_graph, cluster4):
        engine = build(small_graph, cluster4, faults=permanent_crash())
        trainer = ResilientTrainer(
            engine, lr=0.05,
            policy=RecoveryPolicy(
                checkpoint_every=2, strategy="shrink", rejoin_after_epochs=2
            ),
        )
        history = trainer.train(EPOCHS)
        strategies = [e.strategy for e in trainer.recoveries]
        assert strategies == ["shrink", "rejoin"]
        assert trainer.num_workers == 4
        assert len(history.reports) == EPOCHS
        # The grown-back run keeps making progress with finite numerics.
        assert np.isfinite(history.final_loss)

    def test_refetch_bytes_are_the_migration_reports_bytes(
        self, small_graph, cluster4, monkeypatch
    ):
        """A shrink's closure delta is already inside ``migrated_bytes``:
        each event refetches exactly what its own migration moved."""
        from repro.resilience import elastic

        reports = []
        for name in ("shrink_engine", "rejoin_engine"):
            def recording(*args, _real=getattr(elastic, name), **kwargs):
                out = _real(*args, **kwargs)
                reports.append(out[-1])
                return out
            monkeypatch.setattr(elastic, name, recording)
        engine = build(
            small_graph, cluster4, "depcache", faults=permanent_crash()
        )
        trainer = ResilientTrainer(
            engine, lr=0.05,
            policy=RecoveryPolicy(
                checkpoint_every=2, strategy="shrink", rejoin_after_epochs=2
            ),
        )
        trainer.train(EPOCHS)
        assert [r.direction for r in reports] == ["shrink", "rejoin"]
        assert reports[0].closure_bytes > 0  # the delta once counted twice
        for event, report in zip(trainer.recoveries, reports):
            assert event.strategy == report.direction
            assert event.refetch_bytes == report.migrated_bytes

    def test_second_permanent_crash_shrinks_again(self, small_graph, cluster4):
        schedule = FaultSchedule([
            WorkerCrashFault(worker=1, at_time=0.0, permanent=True),
            WorkerCrashFault(worker=2, at_time=0.002, permanent=True),
        ])
        engine = build(small_graph, cluster4, faults=schedule)
        trainer = ResilientTrainer(
            engine, lr=0.05,
            policy=RecoveryPolicy(checkpoint_every=2, strategy="auto"),
        )
        trainer.train(EPOCHS)
        assert [e.strategy for e in trainer.recoveries] == ["shrink", "shrink"]
        assert trainer.num_workers == 2

    def test_auto_restarts_transient_crashes(self, small_graph, cluster4):
        engine = build(
            small_graph, cluster4,
            faults=FaultSchedule([WorkerCrashFault(worker=1, at_time=0.0)]),
        )
        trainer = ResilientTrainer(
            engine, lr=0.05,
            policy=RecoveryPolicy(checkpoint_every=2, strategy="auto"),
        )
        trainer.train(EPOCHS)
        assert [e.strategy for e in trainer.recoveries] == ["restart"]
        assert trainer.num_workers == 4


class TestChaosShrink:
    def test_timing_mode_shrink(self, small_graph, cluster4):
        def model_factory():
            return GNNModel.build(
                "gcn", small_graph.feature_dim, 12,
                small_graph.num_classes, seed=7,
            )

        report = run_chaos(
            "depcomm", small_graph, model_factory, cluster4,
            permanent_crash(), epochs=4,
            policy=RecoveryPolicy(checkpoint_every=2, strategy="shrink"),
        )
        assert report.strategy == "shrink"
        assert report.num_workers_final == 3
        assert [e.strategy for e in report.recoveries] == ["shrink"]
        assert report.recoveries[0].refetch_bytes > 0

    def test_timing_mode_rejoin(self, small_graph, cluster4):
        def model_factory():
            return GNNModel.build(
                "gcn", small_graph.feature_dim, 12,
                small_graph.num_classes, seed=7,
            )

        report = run_chaos(
            "depcomm", small_graph, model_factory, cluster4,
            permanent_crash(), epochs=5,
            policy=RecoveryPolicy(
                checkpoint_every=2, strategy="shrink", rejoin_after_epochs=2
            ),
        )
        assert [e.strategy for e in report.recoveries] == ["shrink", "rejoin"]
        assert report.num_workers_final == 4
