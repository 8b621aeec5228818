"""Fault schedule queries, validation, and deterministic draws."""

import math

import pytest

from repro.cluster.device import T4
from repro.cluster.network import ECS_NETWORK
from repro.resilience import (
    FaultInjector,
    FaultSchedule,
    LinkDegradationFault,
    MessageLossFault,
    StragglerFault,
    WorkerCrashFault,
)
from repro.resilience.retry import MAX_RETRIES, backoff_s


class TestFaultValidation:
    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError, match="window"):
            StragglerFault(worker=0, start=2.0, end=1.0)
        with pytest.raises(ValueError, match=">= 0"):
            LinkDegradationFault(start=-1.0)

    def test_speedups_rejected(self):
        with pytest.raises(ValueError, match="slowdown"):
            StragglerFault(worker=0, gpu_factor=0.5)
        with pytest.raises(ValueError, match="slowdown"):
            LinkDegradationFault(bandwidth_factor=0.9)

    def test_loss_fraction_bounds(self):
        with pytest.raises(ValueError):
            MessageLossFault(drop_fraction=1.5)
        MessageLossFault(drop_fraction=0.0)
        MessageLossFault(drop_fraction=1.0)

    def test_unknown_fault_type_rejected(self):
        with pytest.raises(TypeError, match="unknown fault"):
            FaultSchedule(["not a fault"])
        with pytest.raises(TypeError, match="unknown fault"):
            FaultSchedule().add(object())


class TestScheduleQueries:
    def test_empty_schedule_is_falsy_and_neutral(self):
        s = FaultSchedule()
        assert not s
        assert len(s) == 0
        assert s.gpu_factor(0, 1.0) == 1.0
        assert s.cpu_factor(0, 1.0) == 1.0
        assert s.link_degradation(0, 1, 0.0) == (1.0, 0.0)
        assert s.loss_fraction(0, 1, 0.0) == 0.0
        assert s.pending_crash(math.inf) is None

    def test_straggler_window(self):
        s = FaultSchedule([
            StragglerFault(worker=1, start=1.0, end=2.0, gpu_factor=3.0)
        ])
        assert s.gpu_factor(1, 0.5) == 1.0
        assert s.gpu_factor(1, 1.0) == 3.0
        assert s.gpu_factor(1, 1.99) == 3.0
        assert s.gpu_factor(1, 2.0) == 1.0  # half-open window
        assert s.gpu_factor(0, 1.5) == 1.0  # other workers untouched

    def test_cpu_factor_defaults_to_gpu_factor(self):
        s = FaultSchedule([StragglerFault(worker=0, gpu_factor=2.0)])
        assert s.cpu_factor(0, 0.0) == 2.0
        s2 = FaultSchedule([
            StragglerFault(worker=0, gpu_factor=2.0, cpu_factor=8.0)
        ])
        assert s2.cpu_factor(0, 0.0) == 8.0
        assert s2.gpu_factor(0, 0.0) == 2.0

    def test_concurrent_stragglers_compose(self):
        s = FaultSchedule([
            StragglerFault(worker=0, gpu_factor=2.0),
            StragglerFault(worker=0, gpu_factor=3.0),
        ])
        assert s.gpu_factor(0, 0.0) == 6.0

    def test_link_degradation_wildcards(self):
        s = FaultSchedule([
            LinkDegradationFault(src=1, dst=None, bandwidth_factor=4.0,
                                 extra_latency_s=1e-3)
        ])
        assert s.link_degradation(1, 0, 0.0) == (4.0, 1e-3)
        assert s.link_degradation(1, 3, 0.0) == (4.0, 1e-3)
        assert s.link_degradation(0, 1, 0.0) == (1.0, 0.0)  # directional

    def test_cpu_straggler_slows_touching_links(self):
        s = FaultSchedule([
            StragglerFault(worker=2, gpu_factor=1.5, cpu_factor=5.0)
        ])
        assert s.link_degradation(2, 0, 0.0)[0] == 5.0  # outbound
        assert s.link_degradation(0, 2, 0.0)[0] == 5.0  # inbound
        assert s.link_degradation(0, 1, 0.0)[0] == 1.0

    def test_loss_fractions_compose(self):
        s = FaultSchedule([
            MessageLossFault(drop_fraction=0.5),
            MessageLossFault(drop_fraction=0.5, src=0),
        ])
        assert s.loss_fraction(0, 1, 0.0) == pytest.approx(0.75)
        assert s.loss_fraction(1, 0, 0.0) == pytest.approx(0.5)

    def test_pending_crash_and_recovery(self):
        early = WorkerCrashFault(worker=0, at_time=1.0)
        late = WorkerCrashFault(worker=1, at_time=2.0)
        s = FaultSchedule([late, early])
        assert s.pending_crash(0.5) is None
        assert s.pending_crash(1.5) is early
        assert s.pending_crash(5.0) is early  # earliest first
        s.mark_recovered(early)
        assert s.recovered(early)
        assert s.pending_crash(5.0) is late


class TestInjector:
    def test_draws_are_deterministic(self):
        a = FaultInjector(FaultSchedule(seed=42))
        b = FaultInjector(FaultSchedule(seed=42))
        vals = [a.draw(p, 0, 1, k) for p in range(3) for k in range(3)]
        assert vals == [b.draw(p, 0, 1, k) for p in range(3) for k in range(3)]
        c = FaultInjector(FaultSchedule(seed=43))
        assert vals != [c.draw(p, 0, 1, k) for p in range(3) for k in range(3)]

    def test_device_view_identity_when_healthy(self):
        inj = FaultInjector(FaultSchedule([
            StragglerFault(worker=0, start=1.0, end=2.0, gpu_factor=2.0)
        ]))
        # Outside the window / other workers: the *same* object.
        assert inj.device_view(T4, 0, 0.5) is T4
        assert inj.device_view(T4, 1, 1.5) is T4

    def test_device_view_scales_rates(self):
        inj = FaultInjector(FaultSchedule([
            StragglerFault(worker=0, gpu_factor=2.0, cpu_factor=4.0)
        ]))
        slow = inj.device_view(T4, 0, 0.0)
        assert slow.flops_per_s == T4.flops_per_s / 2.0
        assert slow.sparse_flops_per_s == T4.sparse_flops_per_s / 2.0
        assert slow.cpu_flops_per_s == T4.cpu_flops_per_s / 4.0
        # Same (device, factors) key -> cached object.
        assert inj.device_view(T4, 0, 0.5) is slow

    def test_phase_counter_monotone(self):
        inj = FaultInjector(FaultSchedule())
        assert [inj.next_phase() for _ in range(3)] == [1, 2, 3]


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        assert backoff_s(0) == 1e-4
        assert backoff_s(1) == 2e-4
        assert backoff_s(2) == 4e-4

    def test_max_attempts(self):
        """A chunk every attempt of which drops hits the wire
        ``MAX_RETRIES + 1`` times: the last attempt is delivered."""
        inj = FaultInjector(FaultSchedule([MessageLossFault(1.0)]))
        plan = inj.plan_transfer(ECS_NETWORK, 0, 1, 1e6, 0.0, False, 1)
        assert plan.attempts == MAX_RETRIES + 1 == 6
