"""Cluster specification: workers + device + network.

``ClusterSpec`` bundles everything an engine needs to charge modeled
time: how many workers, what accelerator each has, and what network
connects them.  Factory methods mirror the paper's two testbeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, TYPE_CHECKING

from repro.cluster.device import CPU_XEON, DeviceProfile, T4, V100
from repro.cluster.memory import MemoryTracker
from repro.cluster.network import ECS_NETWORK, IBV_NETWORK, LOOPBACK, NetworkProfile
from repro.cluster.timeline import Timeline

if TYPE_CHECKING:  # avoid a runtime cluster -> resilience import cycle
    from repro.resilience.faults import FaultSchedule


class FaultTargetError(ValueError):
    """A fault names a worker or link endpoint the cluster does not have."""


@dataclass
class ClusterSpec:
    """A homogeneous cluster of ``num_workers`` nodes.

    The paper's testbeds:

    - :meth:`ecs` -- Aliyun ECS: T4 GPU per node, 6 Gbps Ethernet
      (the main 16-node evaluation cluster).
    - :meth:`ibv` -- private cluster: V100 per node, 100 Gbps IB
      (used in Figure 2(c)).
    - :meth:`single_gpu` / :meth:`cpu` -- the single-machine baselines
      of Tables 4 and 5.
    """

    num_workers: int
    device: DeviceProfile = T4
    network: NetworkProfile = ECS_NETWORK
    name: str = "cluster"
    # Optional fault schedule (repro.resilience); None = healthy cluster.
    # Engines consult it through a FaultInjector; an empty/None schedule
    # leaves every modeled time bit-identical to the fault-free path.
    faults: Optional["FaultSchedule"] = None

    def __post_init__(self):
        if self.num_workers < 1:
            raise ValueError("a cluster needs at least one worker")

    # ------------------------------------------------------------------
    @classmethod
    def ecs(cls, num_workers: int = 16) -> "ClusterSpec":
        return cls(num_workers, device=T4, network=ECS_NETWORK, name="ECS")

    @classmethod
    def ibv(cls, num_workers: int = 8) -> "ClusterSpec":
        return cls(num_workers, device=V100, network=IBV_NETWORK, name="IBV")

    @classmethod
    def single_gpu(cls, device: DeviceProfile = T4) -> "ClusterSpec":
        return cls(1, device=device, network=LOOPBACK, name="single-gpu")

    @classmethod
    def cpu(cls, num_workers: int = 1) -> "ClusterSpec":
        return cls(num_workers, device=CPU_XEON, network=LOOPBACK, name="cpu")

    # ------------------------------------------------------------------
    def with_workers(self, num_workers: int) -> "ClusterSpec":
        """Same hardware, different node count (Figure 12 scaling)."""
        return replace(self, num_workers=num_workers)

    def with_faults(self, schedule: "FaultSchedule") -> "ClusterSpec":
        """Same cluster, with a fault schedule injected (chaos runs).

        Every fault's worker and link endpoints must exist: a fault on
        a worker the cluster lacks would silently never fire.
        """
        for fault in schedule.faults if schedule else ():
            for end in ("worker", "src", "dst"):
                target = getattr(fault, end, None)
                if target is not None and not 0 <= target < self.num_workers:
                    raise FaultTargetError(
                        f"{type(fault).__name__} {end}={target} is outside "
                        f"the cluster's workers 0..{self.num_workers - 1}"
                    )
        return replace(self, faults=schedule)

    def healthy(self) -> "ClusterSpec":
        """Same cluster with any fault schedule removed (baseline runs)."""
        return replace(self, faults=None)

    def without_worker(self, worker: int) -> "ClusterSpec":
        """The reshaped (N-1)-worker cluster after ``worker`` leaves.

        Survivors keep their relative order and are renumbered
        ``0 .. N-2``; any fault schedule is remapped accordingly (faults
        pinned to the departed worker are dropped).  Used by the elastic
        shrink path (:mod:`repro.resilience.elastic`).
        """
        if not 0 <= worker < self.num_workers:
            raise ValueError(
                f"worker {worker} not in 0..{self.num_workers - 1}"
            )
        if self.num_workers < 2:
            raise ValueError("cannot shrink a single-worker cluster")
        survivors = [w for w in range(self.num_workers) if w != worker]
        worker_map = {old: new for new, old in enumerate(survivors)}
        faults = (
            self.faults.remap_workers(worker_map) if self.faults else None
        )
        return replace(self, num_workers=self.num_workers - 1, faults=faults)

    def make_timeline(self, record: bool = True) -> Timeline:
        return Timeline(self.num_workers, record=record)

    def make_memory_trackers(self) -> List[MemoryTracker]:
        return [
            MemoryTracker(i, self.device.memory_bytes)
            for i in range(self.num_workers)
        ]
