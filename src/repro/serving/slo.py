"""Per-request latency accounting and service-level objectives.

Every request ends as a :class:`RequestRecord` in a
:class:`LatencyLedger` -- including shed ones, so tail percentiles and
shed rates are computed over the *offered* load, not just the served
share.  The ledger is plain data derived deterministically from the
simulated run: same seed, same config, bit-identical ledger.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import MISSING, dataclass, fields
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class SLOConfig:
    """Admission control.

    ``max_pending``: a request arriving while this many admitted
    requests are still in flight is shed immediately (load shedding
    under overload); ``None`` admits everything.
    """

    max_pending: Optional[int] = None

    def __post_init__(self):
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")


@dataclass(frozen=True)
class RequestRecord:
    """Outcome of one request.

    ``mode`` is how it was served (``cached`` / ``local`` / ``remote``
    / ``shed``); ``worker`` the coordinator that answered it;
    ``comm_bytes`` its share of the cross-worker traffic its batch
    moved; ``staleness_s`` the age of the cached embedding it was
    served from (0 for exact recomputes); ``degraded`` marks answers
    produced on a fallback worker or from an expired cache entry while
    the owner was dead.

    Fleet serving (:mod:`repro.serving.fleet`) annotates three more
    fields: ``replica`` is the serving group that produced the answer
    (-1 for a plain single-server run), ``hedged`` marks answers won by
    a seeded duplicate sent to a backup replica, and ``failover`` marks
    answers re-served on a healthy replica after the routed one was
    declared dead.
    """

    req_id: int
    vertex: int
    arrival_s: float
    dispatch_s: float
    finish_s: Optional[float]
    mode: str
    worker: int
    comm_bytes: float = 0.0
    staleness_s: float = 0.0
    shed: bool = False
    degraded: bool = False
    replica: int = -1
    hedged: bool = False
    failover: bool = False

    @property
    def latency_s(self) -> Optional[float]:
        if self.shed or self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s


COLUMNS = tuple(f.name for f in fields(RequestRecord))
_DEFAULTS = {
    f.name: f.default for f in fields(RequestRecord) if f.default is not MISSING
}


class LatencyLedger:
    """Accumulates per-request outcomes, one column per
    :class:`RequestRecord` field, and summarises them.

    The server appends a ``serve()`` call's rows in one :meth:`extend`
    and the fleet one record at a time (:meth:`add`); :attr:`records` is
    the row view, built on first read of each row.  Every summary reads
    the columns in record order, so it equals the same computation over
    the rows (``total_comm_bytes`` included: Python's left-to-right
    ``sum``, not numpy's pairwise one).
    """

    def __init__(self):
        self.columns: Dict[str, list] = {name: [] for name in COLUMNS}
        self._rows: List[RequestRecord] = []

    def add(self, record: RequestRecord) -> None:
        if len(self._rows) == len(self):
            self._rows.append(record)
        for name in COLUMNS:
            self.columns[name].append(getattr(record, name))

    def extend(self, rows: Sequence[tuple]) -> None:
        """Append records given as tuples of :class:`RequestRecord`'s
        leading fields, in field order and all of one width; the fields
        left out take their defaults."""
        if not rows:
            return
        given = list(zip(*rows))
        for i, (name, column) in enumerate(self.columns.items()):
            column.extend(given[i] if i < len(given) else [_DEFAULTS[name]] * len(rows))

    @property
    def records(self) -> List[RequestRecord]:
        """One :class:`RequestRecord` per request, in ledger order."""
        start = len(self._rows)
        if start < len(self):
            self._rows.extend(
                RequestRecord(*row)
                for row in zip(*(self.columns[name][start:] for name in COLUMNS))
            )
        return self._rows

    def __len__(self) -> int:
        return len(self.columns["req_id"])

    # ------------------------------------------------------------------
    def served(self) -> List[RequestRecord]:
        return [r for r in self.records if not r.shed]

    def latencies_s(self) -> np.ndarray:
        c = self.columns
        return np.array([
            finish - arrival
            for finish, arrival, shed in zip(c["finish_s"], c["arrival_s"], c["shed"])
            if not shed and finish is not None
        ])

    def percentile_s(self, p: float) -> float:
        lat = self.latencies_s()
        return float(np.percentile(lat, p)) if len(lat) else 0.0

    @property
    def p50_s(self) -> float:
        return self.percentile_s(50.0)

    @property
    def p95_s(self) -> float:
        return self.percentile_s(95.0)

    @property
    def p99_s(self) -> float:
        return self.percentile_s(99.0)

    @property
    def mean_s(self) -> float:
        lat = self.latencies_s()
        return float(lat.mean()) if len(lat) else 0.0

    def throughput_rps(self) -> float:
        """Served requests over the span from first arrival to last reply."""
        c = self.columns
        served = [f for f, shed in zip(c["finish_s"], c["shed"]) if not shed]
        if not served:
            return 0.0
        start = min(c["arrival_s"])
        end = max(served)
        span = end - start
        return len(served) / span if span > 0 else float("inf")

    # ------------------------------------------------------------------
    @property
    def shed_count(self) -> int:
        return sum(1 for shed in self.columns["shed"] if shed)

    @property
    def degraded_count(self) -> int:
        return sum(1 for degraded in self.columns["degraded"] if degraded)

    def mode_counts(self) -> Dict[str, int]:
        return dict(Counter(self.columns["mode"]))

    @property
    def total_comm_bytes(self) -> float:
        # Left to right, as over the rows: np.sum's pairwise order rounds
        # differently.
        return float(sum(self.columns["comm_bytes"]))

    def mean_staleness_s(self) -> float:
        c = self.columns
        stale = [s for s, mode in zip(c["staleness_s"], c["mode"]) if mode == "cached"]
        return float(np.mean(stale)) if stale else 0.0

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary plus the full per-request table."""
        return {
            "num_requests": len(self),
            "served": len(self.served()),
            "shed": self.shed_count,
            "degraded": self.degraded_count,
            "mode_counts": self.mode_counts(),
            "latency_p50_ms": self.p50_s * 1e3,
            "latency_p95_ms": self.p95_s * 1e3,
            "latency_p99_ms": self.p99_s * 1e3,
            "latency_mean_ms": self.mean_s * 1e3,
            "throughput_rps": self.throughput_rps(),
            "total_comm_bytes": self.total_comm_bytes,
            "mean_staleness_s": self.mean_staleness_s(),
            "records": [self._record_dict(r) for r in self.records],
        }

    @staticmethod
    def _record_dict(r: RequestRecord) -> Dict[str, object]:
        out: Dict[str, object] = {
            "req_id": r.req_id,
            "vertex": r.vertex,
            "arrival_s": r.arrival_s,
            "dispatch_s": r.dispatch_s,
            "finish_s": r.finish_s,
            "latency_ms": (
                None if r.latency_s is None else r.latency_s * 1e3
            ),
            "mode": r.mode,
            "worker": r.worker,
            "comm_bytes": r.comm_bytes,
            "staleness_s": r.staleness_s,
            "shed": r.shed,
            "degraded": r.degraded,
        }
        # Fleet annotations only appear on fleet-routed records, so a
        # plain single-server ledger serialises exactly as it always
        # did (the golden-parity fixtures pin that layout).
        if r.replica >= 0:
            out["replica"] = r.replica
            out["hedged"] = r.hedged
            out["failover"] = r.failover
        return out
