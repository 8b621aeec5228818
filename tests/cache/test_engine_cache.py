"""Engine integration: refresh cadence, accounting, budget, the guard."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cache.budget import CACHE_MEMORY_LABEL, CacheConfig
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import DepCommEngine, HybridEngine
from repro.engines.base import EpochReport
from repro.graph import generators
from repro.resilience.engine_recovery import recover_from_crash
from repro.resilience.faults import WorkerCrashError, WorkerCrashFault
from repro.resilience.recovery import RecoveryPolicy
from repro.training.resilient import ResilientTrainer
from repro.training.trainer import DistributedTrainer


@pytest.fixture
def graph():
    g = generators.community(120, 4, avg_degree=7.0, seed=21)
    generators.attach_features(g, 12, 4, seed=22)
    g.set_split(rng=np.random.default_rng(23))
    return g.gcn_normalized()


def make(graph, cache, engine_cls=DepCommEngine, **kwargs):
    model = GNNModel.gcn(12, 8, 4, seed=5)
    return model, engine_cls(
        graph, model, ClusterSpec.ecs(4), cache_config=cache, **kwargs
    )


class TestRefreshCadence:
    def test_refresh_every_tau_epochs(self, graph):
        _, engine = make(graph, CacheConfig(tau=3.0))
        history = DistributedTrainer(engine, lr=0.01).train(
            7
        )
        assert [r.cache_refreshed for r in history.reports] == [
            True, False, False, True, False, False, True,
        ]

    def test_tau_inf_fetches_once(self, graph):
        _, engine = make(graph, CacheConfig(tau=float("inf")))
        history = DistributedTrainer(engine, lr=0.01).train(5)
        refreshed = [r.cache_refreshed for r in history.reports]
        assert refreshed == [True, False, False, False, False]
        # Steady state communicates nothing: DepCache-like volume.
        assert all(r.comm_bytes == 0 for r in history.reports[1:])

    def test_force_refresh_mid_window(self, graph):
        _, engine = make(graph, CacheConfig(tau=10.0))
        engine.run_epoch()
        engine.force_refresh()
        report = engine.run_epoch()
        assert report.cache_refreshed
        # The forced refresh restarts the tau window.
        assert not engine.run_epoch().cache_refreshed


class TestAccounting:
    def test_saved_plus_moved_is_conserved(self, graph):
        """Every epoch: bytes moved + bytes saved == the uncached volume."""
        _, base_engine = make(graph, None)
        base = DistributedTrainer(base_engine, lr=0.01).train(4)
        _, engine = make(graph, CacheConfig(tau=4.0))
        cached = DistributedTrainer(engine, lr=0.01).train(4)
        for b, c in zip(base.reports, cached.reports):
            assert c.comm_bytes + c.comm_saved_bytes == b.comm_bytes

    def test_hits_and_misses_partition_the_stale_set(self, graph):
        _, engine = make(graph, CacheConfig(tau=4.0))
        stale_per_epoch = None
        for _ in range(4):
            report = engine.run_epoch()
            total = report.cache_hits + report.cache_misses
            if stale_per_epoch is None:
                stale_per_epoch = total
            assert total == stale_per_epoch
        assert stale_per_epoch == engine.plan().total_stale_vertices()

    def test_refresh_bytes_only_on_refresh_epochs(self, graph):
        _, engine = make(graph, CacheConfig(tau=3.0))
        history = DistributedTrainer(engine, lr=0.01).train(6)
        for r in history.reports:
            if r.cache_refreshed:
                assert r.refresh_bytes > 0 and r.comm_saved_bytes == 0
            else:
                assert r.refresh_bytes == 0 and r.comm_saved_bytes > 0

    def test_cache_entries_accounted_in_host_memory(self, graph):
        _, engine = make(graph, CacheConfig(tau=4.0))
        plan = engine.plan()
        labeled = sum(
            tracker.breakdown().get(CACHE_MEMORY_LABEL, 0)
            for tracker in plan.host_memory
        )
        expected = sum(
            len(plan.stale_deps[l][w]) * engine.dims[l] * 4
            for l in range(engine.num_layers)
            for w in range(engine.cluster.num_workers)
        )
        assert labeled == expected > 0


class TestCapacity:
    def test_capacity_entries_caps_stale_set(self, graph):
        _, unbounded = make(graph, CacheConfig(tau=4.0))
        full = unbounded.plan().total_stale_vertices()
        cap = max(1, full // 16)
        _, engine = make(
            graph, CacheConfig(tau=4.0, capacity_entries=cap)
        )
        # Per-worker budgets: each worker admits at most `cap` entries.
        per_worker = [
            sum(
                len(engine.plan().stale_deps[l][w])
                for l in range(engine.num_layers)
            )
            for w in range(engine.cluster.num_workers)
        ]
        assert all(n <= cap for n in per_worker)
        assert 0 < engine.plan().total_stale_vertices() < full

    def test_capacity_bytes_caps_stale_set(self, graph):
        entry_bytes = 12 * 4  # layer-1 feature row
        _, engine = make(
            graph, CacheConfig(tau=4.0, capacity_bytes=8 * entry_bytes)
        )
        plan = engine.plan()
        for w in range(engine.cluster.num_workers):
            worker_bytes = sum(
                len(plan.stale_deps[l][w]) * engine.dims[l] * 4
                for l in range(engine.num_layers)
            )
            assert worker_bytes <= 8 * entry_bytes

    def test_zero_capacity_disables_cache(self, graph):
        _, engine = make(graph, CacheConfig(tau=4.0, capacity_entries=0))
        assert engine.plan().total_stale_vertices() == 0
        assert not engine._cache_active


class TestHybridGreedy:
    def test_hybrid_picks_all_three_modes(self, graph):
        _, engine = make(graph, CacheConfig(tau=8.0), engine_cls=HybridEngine)
        plan = engine.plan()
        assert plan.total_stale_vertices() > 0
        assert 0.0 < plan.cache_ratio() < 1.0
        assert plan.stale_ratio() > 0.0

    def test_hybrid_cached_sets_disjoint(self, graph):
        _, engine = make(graph, CacheConfig(tau=8.0), engine_cls=HybridEngine)
        plan = engine.plan()
        for l in range(engine.num_layers):
            for w in range(engine.cluster.num_workers):
                stale = plan.stale_deps[l][w]
                assert len(np.intersect1d(stale, plan.comm_ids[l][w])) == 0
                assert len(np.intersect1d(stale, plan.cached_deps[l][w])) == 0

    def test_hybrid_trains(self, graph):
        _, engine = make(graph, CacheConfig(tau=8.0), engine_cls=HybridEngine)
        history = DistributedTrainer(engine, lr=0.01).train(4)
        assert history.reports[-1].loss < history.reports[0].loss


class _ScriptedEngine:
    """Feeds the trainer a scripted loss curve to exercise the guard."""

    name = "scripted"

    def __init__(self, losses, refreshed, cache_config, crash_at=None):
        self.model = GNNModel.gcn(4, 4, 2, seed=0)
        self.timeline = SimpleNamespace(makespan=0.0)  # ResilientTrainer's clock
        self._script = list(zip(losses, refreshed))
        self._i = 0
        self.cache_config = cache_config
        self.forced = 0
        self._crash_at = crash_at  # epoch whose first attempt crashes

    def rollback_to_epoch(self, epoch):
        self._i = epoch  # the replay re-reads the same script

    def run_epoch(self, optimizer=None):
        if self._i + 1 == self._crash_at:
            self._crash_at = None
            raise WorkerCrashError(WorkerCrashFault(worker=0, at_time=0.0), 0.0)
        loss, refreshed = self._script[self._i]
        self._i += 1
        return EpochReport(
            epoch=self._i, epoch_time_s=0.0, loss=loss, comm_bytes=0,
            forward_time_s=0.0, backward_time_s=0.0, allreduce_time_s=0.0,
            cache_refreshed=refreshed,
        )

    def force_refresh(self):
        self.forced += 1


class TestStalenessGuard:
    """Run for both trainers: the resilient one drives the same loop."""

    trainer_cls = DistributedTrainer

    def test_regression_on_stale_epoch_forces_refresh(self):
        engine = _ScriptedEngine(
            losses=[1.0, 0.9, 1.1, 0.8],
            refreshed=[True, False, False, False],
            cache_config=CacheConfig(tau=8.0, refresh_on_regression=True),
        )
        history = self.trainer_cls(engine, lr=0.01).train(4)
        # Only epoch 3 (0.9 -> 1.1, stale) regresses.
        assert engine.forced == 1
        assert history.forced_refreshes == 1

    def test_regression_on_refresh_epoch_is_tolerated(self):
        engine = _ScriptedEngine(
            losses=[1.0, 1.2],
            refreshed=[True, True],
            cache_config=CacheConfig(tau=8.0, refresh_on_regression=True),
        )
        self.trainer_cls(engine, lr=0.01).train(2)
        assert engine.forced == 0  # the inputs were already exact

    def test_guard_disabled_by_config(self):
        engine = _ScriptedEngine(
            losses=[1.0, 2.0, 3.0],
            refreshed=[True, False, False],
            cache_config=CacheConfig(tau=8.0, refresh_on_regression=False),
        )
        history = self.trainer_cls(engine, lr=0.01).train(3)
        assert engine.forced == 0
        assert history.forced_refreshes == 0

    def test_guard_end_to_end(self, graph):
        """A real training run under the guard still converges."""
        _, engine = make(graph, CacheConfig(tau=6.0))
        history = self.trainer_cls(engine, lr=0.05).train(8)
        assert history.reports[-1].loss < history.reports[0].loss


class TestStalenessGuardResilient(TestStalenessGuard):
    """``ResilientTrainer.train`` used to be a copy of the loop without
    the guard: ``chaos --mode train`` with a cache never forced a refresh."""

    trainer_cls = ResilientTrainer

    def test_rolled_back_forced_refresh_is_counted_once(self):
        # Epoch 3 regresses on stale inputs (forces a refresh), epoch 4
        # crashes, the checkpoint is at epoch 2: epochs 3-4 replay, the
        # guard fires again on the replayed epoch 3, and the history
        # must count the one surviving forced refresh, not both.
        engine = _ScriptedEngine(
            losses=[1.0, 0.9, 1.1, 0.8],
            refreshed=[True, False, False, False],
            cache_config=CacheConfig(tau=8.0, refresh_on_regression=True),
            crash_at=4,
        )
        trainer = ResilientTrainer(
            engine, policy=RecoveryPolicy(checkpoint_every=2), lr=0.01
        )
        # Recovery itself (re-provisioning charges) is not under test.
        trainer._recovery = SimpleNamespace(
            on_crash=lambda engine, *_: (engine, "restarted"),
            on_epoch_completed=lambda engine, _: (engine, None),
        )
        history = trainer.train(4)
        assert trainer.recoveries == ["restarted"]
        assert [r.loss for r in history.reports] == [1.0, 0.9, 1.1, 0.8]
        assert engine.forced == 2  # the engine was asked twice ...
        assert history.forced_refreshes == 1  # ... for one surviving epoch


class TestCrashInvalidation:
    def test_recover_invalidates_and_forces_refresh(self, graph):
        from repro.resilience.faults import FaultSchedule, WorkerCrashFault

        fault = WorkerCrashFault(worker=1, at_time=1e9)
        cluster = ClusterSpec.ecs(4).with_faults(FaultSchedule([fault]))
        model = GNNModel.gcn(12, 8, 4, seed=5)
        engine = DepCommEngine(
            graph, model, cluster, cache_config=CacheConfig(tau=10.0)
        )
        engine.run_epoch()
        engine.run_epoch()
        assert len(engine._hist_caches[1]) > 0
        recover_from_crash(engine, fault)
        assert len(engine._hist_caches[1]) == 0
        assert engine.run_epoch().cache_refreshed
