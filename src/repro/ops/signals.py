"""Observable signals the ops detectors are allowed to consume.

The operations benchmark draws a hard line between *ground truth* (the
injected :class:`~repro.resilience.faults.FaultSchedule`, known only to
the grader) and *observations* (what a production operator could
actually see).  Everything in this module is on the observation side:

- :class:`EpochObservation` -- one training epoch's per-worker
  :class:`~repro.cluster.timeline.Timeline` totals deltas plus the
  engine's per-layer exchange statistics (bytes, cache refreshes);
- :class:`CrashObservation` -- a :class:`WorkerCrashError` surfacing at
  a barrier (the failure detector's own signal, not the schedule);
- :class:`WindowObservation` -- one serving window's latency statistics
  derived from the :class:`~repro.serving.slo.LatencyLedger`;
- :class:`FleetWindowObservation` -- one fleet-serving window's
  statistics, including the per-replica served/shed/latency breakdown
  and the popularity concentration (``hot_share``) an operator can read
  off the merged fleet ledger.  Per-replica maps only name replicas
  that appear in the window's records, so the observation stays a pure
  function of the window slice alone (replicas added by a later
  scale-out cannot retroactively change earlier windows on replay).

Every observation is a :class:`~repro.utils.jsonio.Record`: its
dataclass fields *are* the bundle payload layout (``type_tag`` first),
and ``to_dict``/``from_dict`` round-trip them with floats preserved
exactly (JSON serialises them via ``repr``), which is what lets the
trace replayer re-run detection offline and reproduce the recorded
verdicts bit-identically.  Every observation also exposes ``unit`` --
the epoch or window index graders and verdicts count in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.timeline import (
    CPU, GPU, IDLE, NET_RECV, NET_SEND, TotalsDiff,
)
from repro.utils.jsonio import Record


@dataclass(frozen=True)
class EpochObservation(Record):
    """Per-worker activity deltas of one completed training epoch."""

    type_tag = "epoch"

    epoch: int
    t_start: float
    t_end: float
    num_workers: int
    gpu_s: Tuple[float, ...]
    cpu_s: Tuple[float, ...]
    net_send_s: Tuple[float, ...]
    net_recv_s: Tuple[float, ...]
    idle_s: Tuple[float, ...]
    layer_bytes: Tuple[float, ...] = ()
    layer_refresh_bytes: Tuple[float, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def unit(self) -> int:
        return self.epoch

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def refresh_fraction(self) -> float:
        """Share of exchanged bytes that were cache refreshes."""
        total = sum(self.layer_bytes)
        if total <= 0:
            return 0.0
        return sum(self.layer_refresh_bytes) / total

    def compute_s(self) -> Tuple[float, ...]:
        """GPU + host CPU seconds per worker (the straggler signal)."""
        return tuple(g + c for g, c in zip(self.gpu_s, self.cpu_s))


@dataclass(frozen=True)
class CrashObservation(Record):
    """A worker crash surfacing at a barrier (the observable event)."""

    type_tag = "crash"

    epoch: int
    detected_at_s: float
    worker: int
    permanent: bool = False

    @property
    def unit(self) -> int:
        return self.epoch

    @property
    def t_end(self) -> float:
        return self.detected_at_s


def _get(row, name, default=None):
    """A ledger field off a live ``RequestRecord`` or a bundle dict."""
    if isinstance(row, dict):
        return row.get(name, default)
    return getattr(row, name, default)


@dataclass(frozen=True)
class WindowObservation(Record):
    """Latency statistics of one serving window (a req_id slice)."""

    type_tag = "window"

    window: int
    t_start: float
    t_end: float
    num_workers: int
    offered: int
    served: int
    shed: int
    p50_s: float
    p95_s: float
    mean_s: float
    worker_mean_s: Dict[int, float] = field(default_factory=dict)
    worker_served: Dict[int, int] = field(default_factory=dict)

    @property
    def unit(self) -> int:
        return self.window

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @staticmethod
    def breakdown(rows, latencies, num_workers) -> Dict[str, object]:
        """Per-worker latency split of one window's rows."""
        per_worker: Dict[int, List[float]] = {}
        for r, lat in zip(rows, latencies):
            if lat is not None:
                per_worker.setdefault(int(_get(r, "worker")), []).append(lat)
        return {
            "num_workers": num_workers,
            "worker_mean_s": {
                w: float(np.mean(v)) for w, v in sorted(per_worker.items())
            },
            "worker_served": {
                w: len(v) for w, v in sorted(per_worker.items())
            },
        }


@dataclass(frozen=True)
class FleetWindowObservation(Record):
    """Latency + replica breakdown of one fleet-serving window."""

    type_tag = "fleet-window"

    window: int
    t_start: float
    t_end: float
    offered: int
    served: int
    shed: int
    p50_s: float
    p95_s: float
    mean_s: float
    hot_vertex: int
    hot_share: float
    hedged: int = 0
    failover: int = 0
    replica_served: Dict[int, int] = field(default_factory=dict)
    replica_shed: Dict[int, int] = field(default_factory=dict)
    replica_mean_s: Dict[int, float] = field(default_factory=dict)

    @property
    def unit(self) -> int:
        return self.window

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @staticmethod
    def breakdown(rows, latencies, num_workers) -> Dict[str, object]:
        """Per-replica split, hottest vertex and duplicate counters."""
        per_replica: Dict[int, List[float]] = {}
        replica_shed: Dict[int, int] = {}
        vertex_counts: Dict[int, int] = {}
        hedged = failover = 0
        for r, lat in zip(rows, latencies):
            v = int(_get(r, "vertex"))
            vertex_counts[v] = vertex_counts.get(v, 0) + 1
            hedged += bool(_get(r, "hedged", False))
            failover += bool(_get(r, "failover", False))
            replica = int(_get(r, "replica", -1))
            if replica < 0:
                continue
            if lat is None:
                replica_shed[replica] = replica_shed.get(replica, 0) + 1
            else:
                per_replica.setdefault(replica, []).append(lat)
        hot_vertex = min(vertex_counts, key=lambda v: (-vertex_counts[v], v))
        return {
            "hot_vertex": int(hot_vertex),
            "hot_share": vertex_counts[hot_vertex] / len(rows),
            "hedged": hedged,
            "failover": failover,
            "replica_served": {
                k: len(v) for k, v in sorted(per_replica.items())
            },
            "replica_shed": dict(sorted(replica_shed.items())),
            "replica_mean_s": {
                k: float(np.mean(v)) for k, v in sorted(per_replica.items())
            },
        }


#: Observation class per bundle ``"type"`` tag.
_OBSERVATION_TYPES = {
    cls.type_tag: cls for cls in (
        EpochObservation, CrashObservation,
        WindowObservation, FleetWindowObservation,
    )
}


def observation_from_dict(payload: Dict[str, object]):
    """Inverse of ``to_dict`` for any observation type."""
    kind = payload.get("type")
    if kind not in _OBSERVATION_TYPES:
        raise ValueError(f"unknown observation type {kind!r}")
    return _OBSERVATION_TYPES[kind].from_dict(payload)


class TimelineObserver:
    """Diffs an engine's cumulative timeline totals into per-epoch deltas.

    The observer reads only what a monitoring agent could scrape off a
    worker: the timeline's activity totals and the engine's per-layer
    exchange statistics.  ``rebind`` re-anchors the snapshots after an
    elastic reshape (the shrunk engine carries a fresh timeline advanced
    to the handover point).
    """

    def __init__(self, engine):
        self.rebind(engine)

    def rebind(self, engine) -> None:
        self.engine = engine
        self._totals = TotalsDiff(engine.timeline)
        self._t = engine.timeline.makespan

    def crash_observation(self, epoch: int, crash) -> CrashObservation:
        """Fold a :class:`WorkerCrashError` into an observation."""
        return CrashObservation(
            epoch=epoch,
            detected_at_s=float(crash.detected_at_s),
            worker=int(crash.fault.worker),
            permanent=bool(crash.fault.permanent),
        )

    def observe(self, epoch: int) -> EpochObservation:
        """Fold everything since the last observation into one record."""
        timeline = self.engine.timeline
        deltas = {
            kind: tuple(float(v) for v in delta)
            for kind, delta in self._totals.deltas(timeline).items()
        }
        stats = getattr(self.engine, "_forward_stats", []) or []
        obs = EpochObservation(
            epoch=epoch,
            t_start=self._t,
            t_end=timeline.makespan,
            num_workers=timeline.num_workers,
            gpu_s=deltas[GPU],
            cpu_s=deltas[CPU],
            net_send_s=deltas[NET_SEND],
            net_recv_s=deltas[NET_RECV],
            idle_s=deltas[IDLE],
            layer_bytes=tuple(float(s.total_bytes) for s in stats),
            layer_refresh_bytes=tuple(
                float(s.refresh_bytes) for s in stats
            ),
            cache_hits=int(sum(s.cache_hits for s in stats)),
            cache_misses=int(sum(s.cache_misses for s in stats)),
        )
        self._t = timeline.makespan
        return obs


def summarise_windows(
    records: Sequence,
    window_requests: int,
    cls,
    num_workers: int = 0,
    window: Optional[int] = None,
) -> List:
    """Group ledger rows into ``req_id`` windows and summarise each.

    ``records`` may be live :class:`~repro.serving.slo.RequestRecord`
    objects or the plain dicts a recorded bundle stores.  ``cls`` is the
    observation to build -- :class:`WindowObservation` (per-worker
    breakdown) or :class:`FleetWindowObservation` (per-replica, hot
    vertex, duplicates); everything else is shared.  ``window`` keeps
    only that window (the harness asks for the one it just served).

    Rows sort by ``req_id`` within each window before any statistic is
    computed (``np.mean`` is order-sensitive), and every statistic of
    window ``i`` depends only on window ``i``'s rows, so a replay from
    the stored ledger reproduces the live floats bit-identically.
    """
    groups: Dict[int, List] = {}
    for r in records:
        wi = _get(r, "req_id") // window_requests
        if window is None or wi == window:
            groups.setdefault(wi, []).append(r)
    out = []
    for wi in sorted(groups):
        rows = sorted(groups[wi], key=lambda r: _get(r, "req_id"))
        t_start = min(_get(r, "arrival_s") for r in rows)
        t_end = t_start
        latencies: List[Optional[float]] = []
        for r in rows:
            if _get(r, "shed") or _get(r, "finish_s") is None:
                latencies.append(None)
                continue
            latencies.append(_get(r, "finish_s") - _get(r, "arrival_s"))
            t_end = max(t_end, float(_get(r, "finish_s")))
        lat_arr = np.array([lat for lat in latencies if lat is not None])
        served = len(lat_arr)
        out.append(cls(
            window=wi,
            t_start=float(t_start),
            t_end=float(t_end),
            offered=len(rows),
            served=served,
            shed=len(rows) - served,
            p50_s=float(np.percentile(lat_arr, 50)) if served else 0.0,
            p95_s=float(np.percentile(lat_arr, 95)) if served else 0.0,
            mean_s=float(lat_arr.mean()) if served else 0.0,
            **cls.breakdown(rows, latencies, num_workers),
        ))
    return out


def window_observations_from_records(
    records: Sequence, window_requests: int, num_workers: int
) -> List[WindowObservation]:
    """Every single-server window of a ledger (see :func:`summarise_windows`)."""
    return summarise_windows(
        records, window_requests, WindowObservation, num_workers
    )


def fleet_window_observations_from_records(
    records: Sequence, window_requests: int
) -> List[FleetWindowObservation]:
    """Every fleet window of a merged ledger (see :func:`summarise_windows`)."""
    return summarise_windows(records, window_requests, FleetWindowObservation)


__all__ = [
    "EpochObservation",
    "CrashObservation",
    "WindowObservation",
    "FleetWindowObservation",
    "TimelineObserver",
    "observation_from_dict",
    "summarise_windows",
    "window_observations_from_records",
    "fleet_window_observations_from_records",
]
