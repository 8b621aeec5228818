"""Network profiles and the message-time model.

A message of ``b`` bytes on link ``n`` costs
``latency + b / bytes_per_s``; when several senders target the same
receiver in the same unscheduled slot, the receiver NIC is shared and
an additional congestion multiplier applies.  Ring-based scheduling
(Section 4.3) removes that contention, which is how the "R"
optimization earns its 1.10-1.15X in Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass

#: CPU-side throughput of serialising message payloads into send
#: buffers (bytes per second).
CPU_PACK_BYTES_PER_S = 2.4e10
#: Per-vertex-message overhead of a mutex-protected concurrent queue
#: (threads contend on the lock once per enqueued message).
MUTEX_ENQUEUE_S = 1.2e-7
#: Per-vertex-message overhead of the lock-free position-indexed writer
#: (the "L" optimization): each thread writes at a precomputed
#: conflict-free offset, so no contention.
LOCKFREE_ENQUEUE_S = 1.5e-8


@dataclass(frozen=True)
class NetworkProfile:
    """A homogeneous interconnect between workers.

    Attributes
    ----------
    name:
        Profile name.
    bytes_per_s:
        Per-NIC bandwidth in each direction.
    latency_s:
        Per-message latency.
    congestion_factor:
        Effective slowdown when sends are not ring-scheduled and
        multiple senders share a receiver NIC.

    Packing and enqueueing run on the host CPU, so their costs are the
    module constants above, the same on every network.
    """

    name: str
    bytes_per_s: float
    latency_s: float
    congestion_factor: float = 1.5

    def wire_time(self, num_bytes: float, congested: bool = False) -> float:
        """Seconds on the wire for one message."""
        if num_bytes <= 0:
            return 0.0
        time = self.latency_s + num_bytes / self.bytes_per_s
        if congested:
            time *= self.congestion_factor
        return time

    def pack_time(
        self, num_bytes: float, num_messages: int = 1, lock_free: bool = True
    ) -> float:
        """CPU seconds to serialise and enqueue one chunk.

        ``num_messages`` is the number of per-vertex messages packed into
        the chunk; each pays the queue's enqueue overhead (mutex
        contention vs lock-free position-indexed writes).
        """
        if num_bytes <= 0:
            return 0.0
        per_message = LOCKFREE_ENQUEUE_S if lock_free else MUTEX_ENQUEUE_S
        return num_bytes / CPU_PACK_BYTES_PER_S + num_messages * per_message


# Aliyun ECS: 6 Gbps Ethernet between GPU instances.
ECS_NETWORK = NetworkProfile(
    name="ECS-6Gbps",
    bytes_per_s=1.5e9,
    latency_s=2.0e-5,
)

# Private cluster: 100 Gbps EDR InfiniBand.
IBV_NETWORK = NetworkProfile(
    name="IBV-100Gbps",
    bytes_per_s=5.0e10,
    latency_s=1.0e-5,
)

# A loopback profile for single-machine engines.
LOOPBACK = NetworkProfile(
    name="loopback",
    bytes_per_s=5.0e10,
    latency_s=1.0e-6,
    congestion_factor=1.0,
)
