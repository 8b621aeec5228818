"""The exchange-phase timing model.

One call to :func:`run_exchange` models one BSP superstep of a layer:
every worker packs its outgoing chunks, the chunks travel, and every
worker runs its compute for the step.  The three Section 4.3
optimizations map to :class:`CommOptions` flags:

- ``ring`` -- removes receiver-NIC congestion (distinct receivers per
  round, Figure 8);
- ``lock_free`` -- removes the mutex contention multiplier from message
  packing;
- ``overlap`` -- pipelines chunk communication with chunk compute, so
  the phase costs ``max(comm, compute)`` plus a pipeline-fill term
  instead of ``comm + compute``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.cluster.network import NetworkProfile
from repro.cluster.timeline import CPU, GPU, IDLE, NET_RECV, NET_SEND, Timeline

if TYPE_CHECKING:  # comm stays below resilience in the layering
    from repro.resilience.injector import FaultInjector


@dataclass(frozen=True)
class CommOptions:
    """Which of the paper's communication optimizations are enabled."""

    ring: bool = False
    lock_free: bool = False
    overlap: bool = False

    @classmethod
    def none(cls) -> "CommOptions":
        """Raw engine: no optimizations (Figure 9's baselines)."""
        return cls(False, False, False)

    @classmethod
    def all(cls) -> "CommOptions":
        """Full NeutronStar: R + L + P."""
        return cls(True, True, True)

    def label(self) -> str:
        tags = [
            tag
            for tag, enabled in (("R", self.ring), ("L", self.lock_free), ("P", self.overlap))
            if enabled
        ]
        return "+".join(tags) if tags else "raw"


@dataclass(frozen=True)
class CacheTraffic:
    """The staleness-bounded cached share of one exchange.

    ``volumes[s, r]`` are the bytes the cached entries *would* cost to
    fetch.  On a refresh step (``refresh=True``) they are added to the
    exchange and reported as ``refresh_bytes``; otherwise the fetch is
    skipped entirely -- the entries are served from the historical
    cache -- and the volume is reported as ``saved_bytes``.
    """

    volumes: np.ndarray
    refresh: bool
    entries: int = 0


@dataclass
class ExchangeStats:
    """Per-phase accounting (seconds / bytes, per worker).

    ``send_s`` includes retransmitted copies when message-loss faults
    are active; ``retry_wait_s`` is the per-sender timeout + backoff
    stall (zeros without faults), and ``retries`` counts retransmissions
    across the phase.

    With a :class:`CacheTraffic` attached, ``cache_hits`` /
    ``cache_misses`` count entries served stale / re-fetched this phase,
    ``refresh_bytes`` is the re-fetched volume (already included in
    ``total_bytes``), and ``saved_bytes`` the volume a cache-free
    exchange would additionally have moved.
    """

    pack_s: np.ndarray
    send_s: np.ndarray
    recv_s: np.ndarray
    compute_s: np.ndarray
    phase_s: np.ndarray
    total_bytes: int
    retry_wait_s: np.ndarray
    retries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    refresh_bytes: int = 0
    saved_bytes: int = 0

    @property
    def makespan(self) -> float:
        return float(self.phase_s.max()) if len(self.phase_s) else 0.0


def run_exchange(
    timeline: Timeline,
    network: NetworkProfile,
    volumes: np.ndarray,
    chunk_compute: Optional[np.ndarray] = None,
    local_compute: Optional[np.ndarray] = None,
    options: CommOptions = CommOptions(),
    barrier: bool = True,
    bytes_per_message: float = 0.0,
    faults: Optional["FaultInjector"] = None,
    cache: Optional[CacheTraffic] = None,
    participants: Optional[Sequence[int]] = None,
) -> ExchangeStats:
    """Charge one exchange-and-compute superstep to the timeline.

    Parameters
    ----------
    volumes:
        ``volumes[s, r]`` bytes sent from worker ``s`` to worker ``r``
        (diagonal ignored).
    chunk_compute:
        ``chunk_compute[s, r]`` seconds receiver ``r`` spends computing
        on the chunk from sender ``s`` (DepComm work).
    local_compute:
        Per-worker seconds of communication-independent compute (the
        DepCache share of a Hybrid layer, or local edges); overlappable.
    barrier:
        Synchronise all clocks at the end of the phase (BSP semantics).
    bytes_per_message:
        Size of one per-vertex message; used to derive the enqueue count
        each chunk pays (``chunk_bytes / bytes_per_message``).  0 means
        one enqueue per chunk.
    faults:
        Optional :class:`repro.resilience.injector.FaultInjector`.  When
        given, link bandwidth/latency degradations, straggler CPU
        slowdowns (packing and link serving), and message drops apply;
        dropped chunks are retransmitted (:mod:`repro.resilience.retry`)
        with the timeout + backoff stall charged to the timeline as
        ``idle``.  ``None`` (the default) charges every link at its
        nominal rate, bit-identically to an injector over an empty
        schedule.
    cache:
        Optional :class:`CacheTraffic` for the staleness-bounded cached
        share of this exchange: fetched (and charged) on refresh steps,
        skipped otherwise.  ``None`` is the bit-identical cache-free
        path.
    participants:
        Workers taking part in this exchange.  Workers outside the set
        are skipped entirely -- no packing, wire time, compute, or
        barrier wait is charged to them, and any ``volumes`` rows or
        columns naming them are ignored (callers must route around dead
        or idle workers themselves).  ``None`` (the default) means all
        workers, bit-identical to the historical behaviour.
    """
    m = timeline.num_workers
    volumes = np.asarray(volumes, dtype=np.float64)
    if volumes.shape != (m, m):
        raise ValueError(f"volumes must be {m}x{m}, got {volumes.shape}")
    off_diag = ~np.eye(m, dtype=bool)
    cache_hits = cache_misses = refresh_bytes = saved_bytes = 0
    if cache is not None:
        cache_volumes = np.asarray(cache.volumes, dtype=np.float64)
        if cache_volumes.shape != (m, m):
            raise ValueError(
                f"cache volumes must be {m}x{m}, got {cache_volumes.shape}"
            )
        if cache.refresh:
            volumes = volumes + cache_volumes
            refresh_bytes = int(cache_volumes[off_diag].sum())
            cache_misses = cache.entries
        else:
            saved_bytes = int(cache_volumes[off_diag].sum())
            cache_hits = cache.entries
    if chunk_compute is None:
        chunk_compute = np.zeros((m, m))
    if local_compute is None:
        local_compute = np.zeros(m)

    pack_s = np.zeros(m)
    send_s = np.zeros(m)
    recv_s = np.zeros(m)
    compute_s = np.zeros(m)
    phase_s = np.zeros(m)
    retry_wait = np.zeros(m)
    congested = not options.ring
    retries = 0
    phase = faults.next_phase() if faults is not None else 0

    if participants is None:
        members = list(range(m))
    else:
        members = sorted({int(w) for w in participants})
        for w in members:
            if not 0 <= w < m:
                raise ValueError(f"participant {w} not in 0..{m - 1}")
        if not members:
            raise ValueError("participants must name at least one worker")

    for i in members:
        # Degraded links, slow packing on straggler CPUs and dropped
        # chunks retransmitted with timeout + backoff, when faulted.
        t_i = timeline.now(i)
        cpu_slow = 1.0 if faults is None else faults.cpu_factor(i, t_i)
        pack_i = send_i = recv_i = wait_i = recv_bytes = 0.0
        recv_wires = []
        for j in members:
            if j == i:
                continue
            b = volumes[i, j]
            if b > 0:
                pack = network.pack_time(
                    b,
                    num_messages=(
                        int(round(b / bytes_per_message))
                        if bytes_per_message
                        else 1
                    ),
                    lock_free=options.lock_free,
                )
                pack_i += pack * cpu_slow
                if faults is None:
                    send_i += network.wire_time(b)
                else:
                    plan = faults.plan_transfer(
                        network, i, j, b, t_i, False, phase
                    )
                    send_i += plan.send_s
                    wait_i += plan.wait_s
                    retries += plan.retries
            b = volumes[j, i]
            if b > 0:
                wire = (
                    network.wire_time(b, congested=congested)
                    if faults is None
                    else faults.wire_time(
                        network, j, i, b, t_i, congested=congested
                    )
                )
                recv_i += wire
                recv_wires.append(wire)
                recv_bytes += b
        pack_s[i] = pack_i
        send_s[i] = send_i
        recv_s[i] = recv_i
        retry_wait[i] = wait_i
        compute_s[i] = local_compute[i] + sum(
            chunk_compute[j, i] for j in members if j != i
        )

        start = timeline.now(i)
        # CPU packing always precedes the wire.
        timeline.advance(i, CPU, pack_s[i])
        t_comm_start = timeline.now(i)
        # Full-duplex NIC; a sender blocked on timeouts/backoff holds the
        # phase open even if its receive side finished.
        comm = max(send_s[i] + wait_i, recv_s[i])
        if options.overlap and compute_s[i] > 0 and comm > 0:
            # Pipeline: the first chunk must arrive before compute
            # starts.
            fill = min(recv_wires, default=0.0)
            span = max(comm, fill + compute_s[i])
            timeline.record_interval(i, NET_SEND, t_comm_start, send_s[i])
            if wait_i > 0:
                timeline.record_interval(
                    i, IDLE, t_comm_start + send_s[i], wait_i
                )
            timeline.record_interval(
                i, NET_RECV, t_comm_start, recv_s[i],
                num_bytes=int(recv_bytes),
            )
            timeline.record_interval(i, GPU, t_comm_start + fill, compute_s[i])
            timeline.advance_at_least_until(i, t_comm_start + span)
        else:
            timeline.record_interval(i, NET_SEND, t_comm_start, send_s[i])
            if wait_i > 0:
                timeline.record_interval(
                    i, IDLE, t_comm_start + send_s[i], wait_i
                )
            timeline.record_interval(
                i, NET_RECV, t_comm_start, recv_s[i],
                num_bytes=int(recv_bytes),
            )
            timeline.advance_at_least_until(i, t_comm_start + comm)
            timeline.advance(i, GPU, compute_s[i])
        phase_s[i] = timeline.now(i) - start

    if participants is not None:
        inside = np.zeros(m, dtype=bool)
        inside[members] = True
        off_diag &= inside[:, None] & inside[None, :]

    if barrier:
        timeline.barrier(None if participants is None else members)
    return ExchangeStats(
        pack_s=pack_s,
        send_s=send_s,
        recv_s=recv_s,
        compute_s=compute_s,
        phase_s=phase_s,
        total_bytes=int(volumes[off_diag].sum()),
        retry_wait_s=retry_wait,
        retries=retries,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        refresh_bytes=refresh_bytes,
        saved_bytes=saved_bytes,
    )
