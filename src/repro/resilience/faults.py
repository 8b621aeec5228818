"""Deterministic fault schedules for the cluster simulation.

Production clusters have stragglers, flaky links, lossy networks, and
crashing workers; the paper's evaluation assumes none of them.  A
:class:`FaultSchedule` is a seeded, declarative list of faults that the
engines and the exchange scheduler consult while charging modeled time,
so the DepCache/DepComm trade-off can be measured *off* the happy path:

- :class:`StragglerFault` -- one worker's GPU and/or host CPU runs
  slower over a time window.  The host CPU drives message packing and
  the (MPI-style) communication stack, so a CPU straggler also slows
  every link that touches the worker.
- :class:`LinkDegradationFault` -- a link (or all links of a worker)
  loses bandwidth and/or gains latency over a window.
- :class:`MessageLossFault` -- a fraction of sends on matching links is
  dropped; each drop costs a timeout plus exponential backoff and a
  re-send (see :mod:`repro.resilience.retry`).
- :class:`WorkerCrashFault` -- a worker dies at a simulated time; the
  crash is detected at the next layer barrier and surfaced as a
  :class:`WorkerCrashError` for the recovery policy to handle.

All faults are plain data; every random decision (message drops) is
derived from ``(seed, phase, src, dst, attempt)`` so a schedule replays
bit-identically.  An **empty schedule behaves exactly like no schedule
at all** -- the resilience layer is zero-cost when disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

INFINITY = math.inf


def _window_ok(start: float, end: float) -> None:
    if start < 0:
        raise ValueError(f"fault start must be >= 0, got {start}")
    if end <= start:
        raise ValueError(f"fault window must have end > start, got [{start}, {end})")


@dataclass(frozen=True)
class StragglerFault:
    """Worker ``worker`` is slow during ``[start, end)``.

    ``gpu_factor`` divides the device's dense/sparse FLOP rates;
    ``cpu_factor`` (defaults to ``gpu_factor``) divides the host CPU
    rate, message-packing throughput, and the effective bandwidth of
    links touching the worker -- the communication stack is CPU-driven,
    so a host-level straggler is slow at serving messages too.
    """

    worker: int
    start: float = 0.0
    end: float = INFINITY
    gpu_factor: float = 4.0
    cpu_factor: Optional[float] = None

    def __post_init__(self):
        _window_ok(self.start, self.end)
        if self.gpu_factor < 1.0:
            raise ValueError("gpu_factor must be >= 1 (a slowdown)")
        if self.cpu_factor is not None and self.cpu_factor < 1.0:
            raise ValueError("cpu_factor must be >= 1 (a slowdown)")

    @property
    def effective_cpu_factor(self) -> float:
        return self.gpu_factor if self.cpu_factor is None else self.cpu_factor

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class LinkDegradationFault:
    """Links matching ``(src, dst)`` degrade during ``[start, end)``.

    ``None`` for ``src`` or ``dst`` matches any endpoint, so
    ``LinkDegradationFault(src=3, dst=None)`` degrades every link out of
    worker 3.  ``bandwidth_factor`` divides ``bytes_per_s``;
    ``extra_latency_s`` adds to per-message latency.
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    start: float = 0.0
    end: float = INFINITY
    bandwidth_factor: float = 4.0
    extra_latency_s: float = 0.0

    def __post_init__(self):
        _window_ok(self.start, self.end)
        if self.bandwidth_factor < 1.0:
            raise ValueError("bandwidth_factor must be >= 1 (a slowdown)")
        if self.extra_latency_s < 0:
            raise ValueError("extra_latency_s must be >= 0")

    def applies(self, src: int, dst: int, t: float) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and self.start <= t < self.end
        )


@dataclass(frozen=True)
class MessageLossFault:
    """A fraction of chunk sends on matching links is dropped."""

    drop_fraction: float
    src: Optional[int] = None
    dst: Optional[int] = None
    start: float = 0.0
    end: float = INFINITY

    def __post_init__(self):
        _window_ok(self.start, self.end)
        if not 0.0 <= self.drop_fraction <= 1.0:
            raise ValueError("drop_fraction must be in [0, 1]")

    def applies(self, src: int, dst: int, t: float) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and self.start <= t < self.end
        )


@dataclass(frozen=True)
class WorkerCrashFault:
    """Worker ``worker`` dies at simulated time ``at_time``.

    The crash is noticed at the first barrier whose synchronised time
    reaches ``at_time``; all surviving workers then block for
    ``detection_timeout_s`` (the failure detector's timeout) before the
    engine raises :class:`WorkerCrashError`.

    ``permanent`` marks a crash no replacement can be provisioned for
    (spot reclamation, hardware loss): the ``auto`` recovery strategy
    then shrinks the cluster (survivors absorb the partition, see
    :mod:`repro.resilience.elastic`) instead of waiting for a
    rollback-restart re-provision.
    """

    worker: int
    at_time: float
    detection_timeout_s: float = 0.05
    permanent: bool = False

    def __post_init__(self):
        if self.at_time < 0:
            raise ValueError("crash time must be >= 0")
        if self.detection_timeout_s < 0:
            raise ValueError("detection_timeout_s must be >= 0")


class WorkerCrashError(RuntimeError):
    """Raised by an engine when a barrier detects a crashed worker."""

    def __init__(self, fault: WorkerCrashFault, detected_at_s: float):
        super().__init__(
            f"worker {fault.worker} crashed at t={fault.at_time:.4f}s "
            f"(detected at t={detected_at_s:.4f}s)"
        )
        self.fault = fault
        self.detected_at_s = detected_at_s


class RecoveryExhaustedError(WorkerCrashError):
    """A crash landed after the recovery budget was already spent.

    Subclasses :class:`WorkerCrashError` so existing ``except`` clauses
    keep working, but carries the number of recoveries performed so
    callers (the ``repro chaos`` CLI, the ops harness) can distinguish
    "run aborted after exhausting ``max_recoveries``" from a first
    unhandled crash and exit non-zero with a structured failure.
    """

    def __init__(
        self, fault: WorkerCrashFault, detected_at_s: float, recoveries: int
    ):
        super().__init__(fault, detected_at_s)
        self.recoveries = recoveries
        self.args = (
            f"recovery budget exhausted after {recoveries} "
            f"recover{'y' if recoveries == 1 else 'ies'}: {self.args[0]}",
        )


@dataclass
class FaultSchedule:
    """A seeded collection of faults applied to one simulated run.

    The schedule carries mutable bookkeeping (which crashes have been
    recovered), so build a **fresh schedule per engine run** -- e.g. via
    a factory -- when comparing engines under identical churn.
    """

    faults: List = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        self.faults = list(self.faults)
        self._recovered: set = set()
        known = (
            StragglerFault,
            LinkDegradationFault,
            MessageLossFault,
            WorkerCrashFault,
        )
        for fault in self.faults:
            if not isinstance(fault, known):
                raise TypeError(f"unknown fault type: {fault!r}")

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def add(self, fault) -> "FaultSchedule":
        known = (
            StragglerFault,
            LinkDegradationFault,
            MessageLossFault,
            WorkerCrashFault,
        )
        if not isinstance(fault, known):
            raise TypeError(f"unknown fault type: {fault!r}")
        self.faults.append(fault)
        return self

    def _of(self, cls) -> Iterable:
        return (f for f in self.faults if isinstance(f, cls))

    # -- straggler queries ---------------------------------------------
    def gpu_factor(self, worker: int, t: float) -> float:
        """Combined GPU slowdown divisor for ``worker`` at time ``t``."""
        factor = 1.0
        for f in self._of(StragglerFault):
            if f.worker == worker and f.active(t):
                factor *= f.gpu_factor
        return factor

    def cpu_factor(self, worker: int, t: float) -> float:
        """Combined host-CPU slowdown divisor for ``worker`` at ``t``."""
        factor = 1.0
        for f in self._of(StragglerFault):
            if f.worker == worker and f.active(t):
                factor *= f.effective_cpu_factor
        return factor

    # -- link queries --------------------------------------------------
    def link_degradation(
        self, src: int, dst: int, t: float
    ) -> Tuple[float, float]:
        """``(bandwidth_divisor, extra_latency_s)`` for link ``src->dst``.

        Combines explicit link faults with the CPU slowdown of either
        endpoint (the slower endpoint bounds the transfer: the sender
        packs and pushes, the receiver drains).
        """
        divisor = 1.0
        extra_latency = 0.0
        for f in self._of(LinkDegradationFault):
            if f.applies(src, dst, t):
                divisor *= f.bandwidth_factor
                extra_latency += f.extra_latency_s
        endpoint = max(self.cpu_factor(src, t), self.cpu_factor(dst, t))
        return divisor * endpoint, extra_latency

    def loss_fraction(self, src: int, dst: int, t: float) -> float:
        """Probability a chunk sent ``src -> dst`` at ``t`` is dropped."""
        keep = 1.0
        for f in self._of(MessageLossFault):
            if f.applies(src, dst, t):
                keep *= 1.0 - f.drop_fraction
        return 1.0 - keep

    # -- crash queries -------------------------------------------------
    def crashes(self) -> List[WorkerCrashFault]:
        return list(self._of(WorkerCrashFault))

    def pending_crash(self, t: float) -> Optional[WorkerCrashFault]:
        """Earliest unrecovered crash with ``at_time <= t`` (or None)."""
        pending = [
            f
            for f in self._of(WorkerCrashFault)
            if f.at_time <= t and f not in self._recovered
        ]
        return min(pending, key=lambda f: f.at_time) if pending else None

    def mark_recovered(self, fault: WorkerCrashFault) -> None:
        """Record that ``fault``'s worker has been re-provisioned."""
        self._recovered.add(fault)

    def recovered(self, fault: WorkerCrashFault) -> bool:
        return fault in self._recovered

    # -- elastic membership --------------------------------------------
    def remap_workers(self, worker_map: Dict[int, int]) -> "FaultSchedule":
        """The schedule as a renumbered cluster sees it (elastic shrink).

        ``worker_map`` maps surviving old worker ids to their new ids;
        faults pinned to a dropped worker vanish (its straggler dies
        with it, its pending crash is moot), link faults keep wildcard
        (``None``) endpoints, and recovered-crash bookkeeping carries
        over for retained faults.  Fault windows are absolute simulated
        times and the reshaped engine's clock continues from the shrink
        point, so windows need no translation.
        """
        remapped: List = []
        recovered: List[WorkerCrashFault] = []
        for fault in self.faults:
            if isinstance(fault, (StragglerFault, WorkerCrashFault)):
                if fault.worker not in worker_map:
                    continue
                new = replace(fault, worker=worker_map[fault.worker])
                if isinstance(new, WorkerCrashFault) and self.recovered(fault):
                    recovered.append(new)
                remapped.append(new)
            else:  # link-scoped faults: both endpoints must survive
                if fault.src is not None and fault.src not in worker_map:
                    continue
                if fault.dst is not None and fault.dst not in worker_map:
                    continue
                remapped.append(replace(
                    fault,
                    src=None if fault.src is None else worker_map[fault.src],
                    dst=None if fault.dst is None else worker_map[fault.dst],
                ))
        schedule = FaultSchedule(remapped, seed=self.seed)
        for fault in recovered:
            schedule.mark_recovered(fault)
        return schedule
