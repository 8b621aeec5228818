"""Applies a fault schedule to device/network lookups at charge time.

The :class:`FaultInjector` is the stateful, per-run companion of a
declarative :class:`~repro.resilience.faults.FaultSchedule`: engines ask
it for a (possibly degraded) view of the device a worker computes on and
for the effective cost of each chunk transfer, and it keeps the
monotonically increasing *phase counter* that makes message-loss draws
deterministic -- drop decisions hash ``(seed, phase, src, dst,
attempt)``, so the same schedule replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.cluster.device import DeviceProfile
from repro.cluster.network import NetworkProfile
from repro.resilience.faults import FaultSchedule
from repro.resilience.retry import MAX_RETRIES, TIMEOUT_S, backoff_s
from repro.utils.rng import derive_uniform


@dataclass(frozen=True)
class TransferPlan:
    """Modeled outcome of sending one chunk over a faulty link.

    ``wire_s`` is the per-attempt wire time (degraded link), ``attempts``
    how many copies actually hit the wire, ``wait_s`` the accumulated
    timeout + backoff the sender spent between attempts.  The sender
    occupies its NIC for ``wire_s * attempts`` and idles for ``wait_s``;
    the receiver sees one delivered copy (``wire_s``).
    """

    wire_s: float
    attempts: int
    wait_s: float

    @property
    def send_s(self) -> float:
        return self.wire_s * self.attempts

    @property
    def retries(self) -> int:
        return self.attempts - 1


class FaultInjector:
    """One engine run's view of a fault schedule.

    Also accumulates retry statistics (``total_retries``,
    ``total_dropped``, ``total_retry_s``) that the chaos harness reports.
    """

    def __init__(self, schedule: FaultSchedule):
        if schedule is None:
            raise ValueError("FaultInjector needs a FaultSchedule")
        self.schedule = schedule
        self._phase = 0
        self._device_cache: Dict[Tuple[int, float, float], DeviceProfile] = {}
        self.total_retries = 0
        self.total_dropped = 0
        self.total_retry_s = 0.0

    # ------------------------------------------------------------------
    def next_phase(self) -> int:
        """Advance and return the exchange-phase counter."""
        self._phase += 1
        return self._phase

    def draw(self, phase: int, src: int, dst: int, attempt: int) -> float:
        """Deterministic uniform in [0, 1) for one send attempt.

        Routed through :func:`repro.utils.rng.derive_uniform`, whose
        all-integer path is bit-identical to the historical
        ``default_rng([seed & 0x7FFFFFFF, phase, src, dst, attempt])``
        formula, so pre-helper chaos traces replay unchanged.
        """
        return derive_uniform(self.schedule.seed, phase, src, dst, attempt)

    # ------------------------------------------------------------------
    # Device view (straggler compute slowdown)
    # ------------------------------------------------------------------
    def device_view(
        self, device: DeviceProfile, worker: int, t: float
    ) -> DeviceProfile:
        """``device`` as ``worker`` experiences it at time ``t``."""
        gpu = self.schedule.gpu_factor(worker, t)
        cpu = self.schedule.cpu_factor(worker, t)
        if gpu == 1.0 and cpu == 1.0:
            return device
        key = (id(device), gpu, cpu)
        cached = self._device_cache.get(key)
        if cached is None:
            cached = replace(
                device,
                flops_per_s=device.flops_per_s / gpu,
                sparse_flops_per_s=device.sparse_flops_per_s / gpu,
                cpu_flops_per_s=device.cpu_flops_per_s / cpu,
            )
            self._device_cache[key] = cached
        return cached

    def cpu_factor(self, worker: int, t: float) -> float:
        return self.schedule.cpu_factor(worker, t)

    # ------------------------------------------------------------------
    # Link view (degradation, loss, retries)
    # ------------------------------------------------------------------
    def wire_time(
        self,
        network: NetworkProfile,
        src: int,
        dst: int,
        num_bytes: float,
        t: float,
        congested: bool = False,
    ) -> float:
        """Per-attempt wire seconds on the (possibly degraded) link."""
        if num_bytes <= 0:
            return 0.0
        divisor, extra_latency = self.schedule.link_degradation(src, dst, t)
        time = (
            network.latency_s
            + extra_latency
            + num_bytes / (network.bytes_per_s / divisor)
        )
        if congested:
            time *= network.congestion_factor
        return time

    def plan_transfer(
        self,
        network: NetworkProfile,
        src: int,
        dst: int,
        num_bytes: float,
        t: float,
        congested: bool,
        phase: int,
    ) -> TransferPlan:
        """Wire/wait accounting for one chunk send: a dropped attempt
        costs its wire time, ``TIMEOUT_S`` and a backoff, then re-sends
        (:mod:`repro.resilience.retry`)."""
        wire = self.wire_time(network, src, dst, num_bytes, t, congested)
        p = self.schedule.loss_fraction(src, dst, t)
        attempts = 1
        wait = 0.0
        if p > 0.0:
            for k in range(MAX_RETRIES):
                if self.draw(phase, src, dst, k) >= p:
                    break  # delivered on attempt k
                wait += TIMEOUT_S + backoff_s(k)
                attempts += 1
        plan = TransferPlan(wire_s=wire, attempts=attempts, wait_s=wait)
        if plan.retries:
            self.total_retries += plan.retries
            self.total_dropped += plan.retries
            self.total_retry_s += plan.wait_s + plan.wire_s * plan.retries
        return plan
