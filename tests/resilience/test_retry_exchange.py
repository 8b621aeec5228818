"""run_exchange under faults: degraded links, losses, retries."""

import numpy as np

from repro.cluster.network import ECS_NETWORK
from repro.cluster.timeline import IDLE, Timeline
from repro.comm.scheduler import run_exchange
from repro.resilience import (
    FaultInjector,
    FaultSchedule,
    LinkDegradationFault,
    MessageLossFault,
    StragglerFault,
)
from repro.resilience.retry import MAX_RETRIES


def volumes(m=2, bytes_each=1e6):
    v = np.zeros((m, m))
    v[~np.eye(m, dtype=bool)] = bytes_each
    return v


def run(faults=None, m=2, **kwargs):
    tl = Timeline(m)
    stats = run_exchange(
        tl, ECS_NETWORK, volumes(m), faults=faults, **kwargs
    )
    return tl, stats


class TestEmptyScheduleEquivalence:
    def test_empty_injector_matches_no_injector_bitwise(self):
        """An injector over an *empty* schedule is the identity."""
        tl_none, s_none = run(faults=None)
        tl_empty, s_empty = run(faults=FaultInjector(FaultSchedule()))
        assert tl_none.makespan == tl_empty.makespan  # bit-identical
        np.testing.assert_array_equal(s_none.pack_s, s_empty.pack_s)
        np.testing.assert_array_equal(s_none.send_s, s_empty.send_s)
        np.testing.assert_array_equal(s_none.recv_s, s_empty.recv_s)
        np.testing.assert_array_equal(s_none.phase_s, s_empty.phase_s)
        assert s_empty.retries == 0


class TestDegradation:
    def test_link_degradation_slows_phase(self):
        _, clean = run()
        inj = FaultInjector(FaultSchedule([
            LinkDegradationFault(bandwidth_factor=4.0)
        ]))
        _, slow = run(faults=inj)
        assert slow.makespan > clean.makespan * 2

    def test_straggler_cpu_slows_packing_and_links(self):
        _, clean = run(bytes_per_message=64)
        inj = FaultInjector(FaultSchedule([
            StragglerFault(worker=0, gpu_factor=1.0, cpu_factor=8.0)
        ]))
        _, slow = run(faults=inj, bytes_per_message=64)
        assert slow.pack_s[0] > clean.pack_s[0] * 7
        assert slow.pack_s[1] == clean.pack_s[1]
        # Both directions touch worker 0, so both ends see slow links.
        assert slow.send_s[1] > clean.send_s[1]


class TestLossAndRetry:
    def test_losses_cause_retries_and_stalls(self):
        inj = FaultInjector(FaultSchedule([
            MessageLossFault(drop_fraction=0.9)
        ], seed=7))
        tl, stats = run(faults=inj)
        _, clean = run()
        assert stats.retries > 0
        assert inj.total_retries == stats.retries
        assert inj.total_retry_s > 0
        assert float(stats.retry_wait_s.sum()) > 0
        assert stats.makespan > clean.makespan
        # The stall is visible on the timeline as idle time.
        assert float(tl.totals[IDLE].sum()) > 0

    def test_retries_bounded_by_policy(self):
        inj = FaultInjector(FaultSchedule([
            MessageLossFault(drop_fraction=1.0)  # every attempt dropped
        ]))
        _, stats = run(faults=inj)
        # 2 workers x 1 chunk each, all attempts dropped -> exactly
        # MAX_RETRIES retransmissions per chunk (last one delivered).
        assert stats.retries == 2 * MAX_RETRIES

    def test_loss_draws_replay_deterministically(self):
        def once():
            inj = FaultInjector(FaultSchedule([
                MessageLossFault(drop_fraction=0.5)
            ], seed=11))
            tl, stats = run(faults=inj, m=4)
            return tl.makespan, stats.retries

        assert once() == once()
