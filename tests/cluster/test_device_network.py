"""Device/network time formulas and memory tracking."""

import pytest

from repro.cluster.device import CPU_XEON, T4, V100
from repro.cluster.memory import MemoryTracker, OutOfMemoryError
from repro.cluster.network import ECS_NETWORK, IBV_NETWORK, LOOPBACK


class TestDeviceProfile:
    def test_dense_time_linear_in_flops(self):
        t1 = T4.dense_time(1e9)
        t2 = T4.dense_time(2e9)
        assert t2 - t1 == pytest.approx(1e9 / T4.flops_per_s)

    def test_zero_flops_costs_nothing(self):
        assert T4.dense_time(0) == 0.0
        assert T4.sparse_time(0) == 0.0
        assert T4.transfer_time(0) == 0.0

    def test_kernel_launch_included(self):
        assert T4.dense_time(1) >= T4.kernel_launch_s

    def test_sparse_slower_than_dense(self):
        assert T4.sparse_time(1e9) > T4.dense_time(1e9)

    def test_v100_faster_than_t4(self):
        assert V100.dense_time(1e10) < T4.dense_time(1e10)
        assert V100.sparse_time(1e10) < T4.sparse_time(1e10)

    def test_cpu_profile_flagged(self):
        assert not CPU_XEON.is_gpu
        assert T4.is_gpu

    def test_transfer_time(self):
        assert T4.transfer_time(T4.pcie_bytes_per_s) == pytest.approx(1.0)


class TestNetworkProfile:
    def test_wire_time_includes_latency(self):
        assert ECS_NETWORK.wire_time(0) == 0.0
        assert ECS_NETWORK.wire_time(1) >= ECS_NETWORK.latency_s

    def test_congestion_multiplies(self):
        free = ECS_NETWORK.wire_time(1e6, congested=False)
        jammed = ECS_NETWORK.wire_time(1e6, congested=True)
        assert jammed == pytest.approx(free * ECS_NETWORK.congestion_factor)

    def test_ibv_much_faster(self):
        assert IBV_NETWORK.wire_time(1e6) < ECS_NETWORK.wire_time(1e6) / 5

    def test_lock_free_pack_cheaper(self):
        mutex = ECS_NETWORK.pack_time(1e4, num_messages=100, lock_free=False)
        lockfree = ECS_NETWORK.pack_time(1e4, num_messages=100, lock_free=True)
        assert lockfree < mutex

    def test_pack_scales_with_messages(self):
        few = ECS_NETWORK.pack_time(1e4, num_messages=10, lock_free=False)
        many = ECS_NETWORK.pack_time(1e4, num_messages=1000, lock_free=False)
        assert many > few

    def test_loopback_no_congestion(self):
        assert LOOPBACK.congestion_factor == 1.0


class TestMemoryTracker:
    def test_oom_raises_with_context(self):
        t = MemoryTracker(3, 100)
        t.allocate(80, "features")
        with pytest.raises(OutOfMemoryError) as err:
            t.allocate(30, "edge_tape")
        assert err.value.worker == 3
        assert err.value.label == "edge_tape"
        assert err.value.used == 80

    def test_breakdown_filters_empty(self):
        t = MemoryTracker(0, 100)
        t.allocate(10, "a")
        t.allocate(0, "b")
        assert t.breakdown() == {"a": 10}

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            MemoryTracker(0, 100).allocate(-1, "x")

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            MemoryTracker(0, 0)
