"""run_exchange under faults: degraded links, losses, retries."""

import numpy as np
import pytest

from repro.cluster.network import ECS_NETWORK
from repro.cluster.timeline import IDLE, Timeline
from repro.comm.scheduler import CacheTraffic, CommOptions, run_exchange
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


def skewed_volumes(m=4):
    """Distinct byte counts per pair, so every sum has several terms."""
    v = np.arange(1.0, m * m + 1.0).reshape(m, m) * 1.5e5
    np.fill_diagonal(v, 0.0)
    return v


EQUIVALENCE_CASES = {
    "all-pairs": dict(m=2),
    "participants": dict(
        m=4, vols=skewed_volumes(), participants=[0, 2, 3],
        chunk_compute=np.full((4, 4), 2e-4), options=CommOptions.all(),
    ),
    "cache-refresh": dict(
        m=4, vols=skewed_volumes(), bytes_per_message=64,
        cache=CacheTraffic(skewed_volumes() / 3, refresh=True, entries=7),
    ),
    "cache-hit": dict(
        m=4, vols=skewed_volumes(),
        cache=CacheTraffic(skewed_volumes() / 3, refresh=False, entries=5),
    ),
}


class TestEmptyScheduleEquivalence:
    @pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
    def test_empty_injector_matches_no_injector_bitwise(self, case):
        """An injector over an *empty* schedule is the identity."""
        kwargs = dict(EQUIVALENCE_CASES[case])
        m = kwargs.pop("m")
        vols = kwargs.pop("vols", volumes(m))

        def once(faults):
            tl = Timeline(m)
            stats = run_exchange(
                tl, ECS_NETWORK, vols, faults=faults, **kwargs
            )
            return tl, stats

        tl_none, s_none = once(None)
        tl_empty, s_empty = once(FaultInjector(FaultSchedule()))
        assert tl_none.makespan == tl_empty.makespan  # bit-identical
        np.testing.assert_array_equal(tl_none.clocks, tl_empty.clocks)
        assert tl_none.intervals == tl_empty.intervals  # bytes included
        for name in ("pack_s", "send_s", "recv_s", "compute_s", "phase_s",
                     "retry_wait_s"):
            np.testing.assert_array_equal(
                getattr(s_none, name), getattr(s_empty, name), err_msg=name
            )
        assert not s_none.retry_wait_s.any()
        for name in ("total_bytes", "retries", "cache_hits", "cache_misses",
                     "refresh_bytes", "saved_bytes"):
            assert getattr(s_none, name) == getattr(s_empty, name), name
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
