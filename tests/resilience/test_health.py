"""Health monitoring, drift detection, and online re-planning."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.model import GNNModel
from repro.costmodel.partitioner import partition_dependencies
from repro.engines import make_engine
from repro.ops.signals import EpochObservation, TimelineObserver
from repro.partition import get_partitioner
from repro.resilience import (
    ClusterHealthMonitor,
    FaultSchedule,
    StragglerFault,
    run_replan_sweep,
)
from repro.training import DistributedTrainer


def build(graph, cluster, engine_name="hybrid", faults=None, seed=7):
    model = GNNModel.build(
        "gcn", graph.feature_dim, 12, graph.num_classes, seed=seed
    )
    if faults is not None:
        cluster = cluster.with_faults(faults)
    return make_engine(engine_name, graph, model, cluster)


def observation(epoch, compute, comm=None):
    """One epoch's observation: ``compute`` GPU and ``comm`` receive
    seconds per worker, nothing else."""
    zeros = (0.0,) * len(compute)
    return EpochObservation(
        epoch=epoch, t_start=0.0, t_end=0.0, num_workers=len(compute),
        gpu_s=tuple(map(float, compute)), cpu_s=zeros, net_send_s=zeros,
        net_recv_s=zeros if comm is None else tuple(map(float, comm)),
        idle_s=zeros,
    )


def feed(monitor, num_workers, compute_rows, comm_rows=None):
    """Feed synthetic per-epoch deltas into the monitor."""
    for i, compute in enumerate(compute_rows):
        assert len(compute) == num_workers
        comm = None if comm_rows is None else comm_rows[i]
        monitor.observe(observation(i + 1, compute, comm))


def monitored_epochs(engine, monitor, epochs, optimizer):
    """Train ``epochs`` epochs, re-planning whenever ``monitor`` drifts;
    returns the number of re-plans."""
    observer = TimelineObserver(engine)
    replans = 0
    for epoch in range(1, epochs + 1):
        engine.run_epoch(optimizer=optimizer)
        monitor.observe(observer.observe(epoch))
        replans += monitor.maybe_replan(engine)
    return replans


class TestMonitorEstimates:
    def test_uniform_cluster_stays_at_one(self):
        monitor = ClusterHealthMonitor(4)
        feed(monitor, 4, [[1.0, 1.0, 1.0, 1.0]] * 4)
        np.testing.assert_allclose(monitor.compute_factors, 1.0)
        assert not monitor.drifted()

    def test_straggler_stands_out_from_the_median(self):
        monitor = ClusterHealthMonitor(4, alpha=0.5)
        feed(monitor, 4, [[4.0, 1.0, 1.0, 1.0]] * 5)
        assert monitor.compute_factors[0] > 2.0
        assert np.all(monitor.compute_factors[1:] <= 1.001)
        assert monitor.drifted()

    def test_comm_and_compute_tracked_separately(self):
        monitor = ClusterHealthMonitor(2, alpha=1.0, drift_threshold=0.2)
        feed(monitor, 2, [[1.0, 1.0]] * 3, comm_rows=[[3.0, 1.0]] * 3)
        np.testing.assert_allclose(monitor.compute_factors, 1.0)
        assert monitor.comm_factors[0] > 1.2
        assert monitor.drifted()

    def test_first_observation_only_baselines(self):
        monitor = ClusterHealthMonitor(2)
        feed(monitor, 2, [[5.0, 1.0]])
        assert monitor.observations == 0
        np.testing.assert_allclose(monitor.compute_factors, 1.0)

    def test_min_observations_damps_drift(self):
        n = ClusterHealthMonitor.MIN_OBSERVATIONS
        short = ClusterHealthMonitor(2, alpha=1.0)
        feed(short, 2, [[9.0, 1.0]] * n)  # n - 1 folded observations
        assert not short.drifted()
        enough = ClusterHealthMonitor(2, alpha=1.0)
        feed(enough, 2, [[9.0, 1.0]] * (n + 1))
        assert enough.drifted()

    def test_mark_replanned_reanchors(self):
        monitor = ClusterHealthMonitor(2, alpha=1.0)
        feed(monitor, 2, [[6.0, 1.0]] * 4)
        assert monitor.drifted()
        monitor.mark_replanned()
        assert not monitor.drifted()
        # A stable (if degraded) cluster does not re-trigger.
        feed(monitor, 2, [[6.0, 1.0]] * 4)
        assert not monitor.drifted()

    def test_rejects_wrong_timeline_size(self):
        monitor = ClusterHealthMonitor(4)
        with pytest.raises(ValueError):
            monitor.observe(observation(1, [1.0, 1.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterHealthMonitor(0)
        with pytest.raises(ValueError):
            ClusterHealthMonitor(2, alpha=0.0)
        with pytest.raises(ValueError):
            ClusterHealthMonitor(2, drift_threshold=0.0)


class TestWorkerConstants:
    def test_scales_only_unhealthy_workers(self, small_graph, cluster2):
        engine = build(small_graph, cluster2)
        engine.plan()
        base = engine.constants
        monitor = ClusterHealthMonitor(2, alpha=1.0)
        feed(monitor, 2, [[3.0, 1.0]] * 3)
        overrides = monitor.worker_constants(base)
        assert 0 in overrides
        factor = float(monitor.compute_factors[0])
        assert overrides[0].t_v == pytest.approx(base.t_v * factor)
        assert overrides[0].t_e == pytest.approx(base.t_e * factor)
        # Comm stayed healthy, so t_c is untouched for worker 0 ...
        assert overrides[0].t_c == pytest.approx(
            base.t_c * float(monitor.comm_factors[0])
        )

    def test_healthy_workers_get_no_override(self):
        monitor = ClusterHealthMonitor(3)
        base = None
        # All factors at 1.0: nothing to override, regardless of base.
        assert monitor.worker_constants(base) == {}


class TestReplan:
    def test_replan_without_overrides_keeps_decisions(
        self, small_graph, cluster2
    ):
        engine = build(small_graph, cluster2)
        plan_before = engine.plan()
        cached_before = {
            w: [a.copy() for a in p.cached]
            for w, p in engine._dep_partitions.items()
        }
        engine.replan({})
        plan_after = engine.plan()
        assert plan_after.cache_ratio() == plan_before.cache_ratio()
        for w, layers in cached_before.items():
            for a, b in zip(layers, engine._dep_partitions[w].cached):
                np.testing.assert_array_equal(a, b)

    def test_replan_charges_preprocessing(self, small_graph, cluster2):
        engine = build(small_graph, cluster2)
        engine.plan()
        t_before = engine.timeline.makespan
        engine.replan({})
        assert engine.timeline.makespan > t_before

    def test_override_shifts_decisions(self, small_graph, cluster2):
        engine = build(small_graph, cluster2)
        engine.plan()
        base = engine.constants
        cached_before = sum(
            len(a) for p in engine._dep_partitions.values() for a in p.cached
        )
        # Worker 0's links crawl: caching must become more attractive.
        slow_link = replace(
            base,
            t_c=base.t_c * 50,
            t_c_layer=[t * 50 for t in base.t_c_layer],
        )
        engine.replan({0: slow_link})
        cached_after = sum(
            len(a) for p in engine._dep_partitions.values() for a in p.cached
        )
        assert cached_after > cached_before

    def test_warm_start_skips_measurement_sweep(self, small_graph, cluster2):
        engine = build(small_graph, cluster2)
        engine.plan()
        partitioning = get_partitioner("chunk")(small_graph, 2)
        cold = partition_dependencies(
            small_graph, partitioning, 0, engine.dims, engine.constants
        )
        warm = partition_dependencies(
            small_graph, partitioning, 0, engine.dims, engine.constants,
            warm_start=cold,
        )
        # Identical decisions, strictly fewer subtree measurements.
        for a, b in zip(cold.cached, warm.cached):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(cold.communicated, warm.communicated):
            np.testing.assert_array_equal(a, b)
        assert warm.measured_evaluations < cold.measured_evaluations


class TestTrainerIntegration:
    def test_monitored_run_replans_and_keeps_numerics(
        self, small_graph, cluster2
    ):
        """Re-planning changes the modeled schedule, not the math.

        Moving a dependency between the cached and communicated sets
        changes the fp32 reduction order, so the trajectories are equal
        to float tolerance rather than bit-identical.
        """
        baseline = build(small_graph, cluster2)
        DistributedTrainer(baseline, lr=0.05).train(6)
        base_params = [p.data.copy() for p in baseline.model.parameters()]

        faults = FaultSchedule([
            StragglerFault(worker=0, gpu_factor=8.0, cpu_factor=8.0)
        ])
        engine = build(small_graph, cluster2, faults=faults)
        trainer = DistributedTrainer(engine, lr=0.05)
        monitor = ClusterHealthMonitor(2, alpha=0.8, drift_threshold=0.2)
        assert monitored_epochs(engine, monitor, 6, trainer.optimizer) >= 1
        for a, b in zip(base_params, engine.model.parameters()):
            np.testing.assert_allclose(a, b.data, rtol=1e-4, atol=1e-6)


class TestReplanSweep:
    def test_returns_complete_result(self, small_graph, cluster2):
        def model_factory():
            return GNNModel.build(
                "gcn", small_graph.feature_dim, 12,
                small_graph.num_classes, seed=7,
            )

        def schedule_factory():
            return FaultSchedule([
                StragglerFault(worker=0, gpu_factor=8.0, cpu_factor=8.0)
            ])

        result = run_replan_sweep(
            "hybrid", small_graph, model_factory, cluster2,
            schedule_factory, epochs=6, alpha=0.8, drift_threshold=0.15,
        )
        for key in (
            "engine", "epochs", "static_makespan_s", "adaptive_makespan_s",
            "speedup", "replans", "static_cache_ratio",
            "adaptive_cache_ratio",
        ):
            assert key in result
        assert result["engine"] == "hybrid"
        assert result["static_makespan_s"] > 0
        assert result["adaptive_makespan_s"] > 0
        assert result["replans"] >= 1
