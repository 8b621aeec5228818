"""The one window summariser against the two functions it replaced.

``reference_windows`` / ``reference_fleet_windows`` are the parent
commit's ``window_observations_from_records`` and
``fleet_window_observations_from_records``, kept verbatim as the
reference: the single pass in :func:`repro.ops.signals.summarise_windows`
must return exactly what they return -- on the degenerate ledgers below
(an empty window, an all-shed window, a window whose only rows are
sheds on one replica) and on every registered serving / fleet run.
"""

from dataclasses import asdict
from typing import Dict, List, Sequence

import numpy as np
import pytest

from repro.ops import (
    FleetWindowObservation,
    WindowObservation,
    fleet_window_observations_from_records,
    window_observations_from_records,
)
from repro.ops.signals import summarise_windows
from repro.serving.slo import RequestRecord


def reference_windows(
    records: Sequence, window_requests: int, num_workers: int
) -> List[WindowObservation]:
    """Slice ledger records into fixed-size req_id windows and summarise.

    ``records`` may be live :class:`~repro.serving.slo.RequestRecord`
    objects or the plain dicts a recorded bundle stores -- both carry
    ``req_id`` / ``arrival_s`` / ``finish_s`` / ``worker`` / ``shed``.
    Records are sorted by ``req_id`` within each window before any
    statistic is computed, so a replay from stored records reproduces
    the live run's floats bit-identically (``np.mean`` is
    order-sensitive).
    """

    def get(r, name):
        return r[name] if isinstance(r, dict) else getattr(r, name)

    rows = sorted(records, key=lambda r: get(r, "req_id"))
    if not rows:
        return []
    num_windows = (get(rows[-1], "req_id") // window_requests) + 1
    out: List[WindowObservation] = []
    for wi in range(num_windows):
        lo, hi = wi * window_requests, (wi + 1) * window_requests
        win = [r for r in rows if lo <= get(r, "req_id") < hi]
        if not win:
            continue
        latencies: List[float] = []
        per_worker: Dict[int, List[float]] = {}
        shed = 0
        t_start = min(get(r, "arrival_s") for r in win)
        t_end = t_start
        for r in win:
            if get(r, "shed") or get(r, "finish_s") is None:
                shed += 1
                continue
            lat = get(r, "finish_s") - get(r, "arrival_s")
            latencies.append(lat)
            per_worker.setdefault(int(get(r, "worker")), []).append(lat)
            t_end = max(t_end, float(get(r, "finish_s")))
        lat_arr = np.array(latencies) if latencies else np.zeros(0)
        out.append(WindowObservation(
            window=wi,
            t_start=float(t_start),
            t_end=float(t_end),
            num_workers=num_workers,
            offered=len(win),
            served=len(latencies),
            shed=shed,
            p50_s=float(np.percentile(lat_arr, 50)) if len(lat_arr) else 0.0,
            p95_s=float(np.percentile(lat_arr, 95)) if len(lat_arr) else 0.0,
            mean_s=float(lat_arr.mean()) if len(lat_arr) else 0.0,
            worker_mean_s={
                w: float(np.mean(v)) for w, v in sorted(per_worker.items())
            },
            worker_served={
                w: len(v) for w, v in sorted(per_worker.items())
            },
        ))
    return out


def reference_fleet_windows(
    records: Sequence, window_requests: int
) -> List[FleetWindowObservation]:
    """Slice a merged fleet ledger into req_id windows and summarise.

    Pure over the record rows alone (live ``RequestRecord`` objects or
    bundle dicts), mirroring :func:`window_observations_from_records`:
    rows sort by ``req_id`` before any order-sensitive float is
    computed, and every statistic of window ``i`` depends only on
    window ``i``'s rows, so offline replay from the stored ledger
    reproduces the live observation stream bit-identically.
    """

    def get(r, name, default=None):
        if isinstance(r, dict):
            return r.get(name, default)
        return getattr(r, name, default)

    rows = sorted(records, key=lambda r: get(r, "req_id"))
    if not rows:
        return []
    num_windows = (get(rows[-1], "req_id") // window_requests) + 1
    out: List[FleetWindowObservation] = []
    for wi in range(num_windows):
        lo, hi = wi * window_requests, (wi + 1) * window_requests
        win = [r for r in rows if lo <= get(r, "req_id") < hi]
        if not win:
            continue
        latencies: List[float] = []
        per_replica: Dict[int, List[float]] = {}
        replica_served: Dict[int, int] = {}
        replica_shed: Dict[int, int] = {}
        vertex_counts: Dict[int, int] = {}
        shed = hedged = failover = 0
        t_start = min(get(r, "arrival_s") for r in win)
        t_end = t_start
        for r in win:
            v = int(get(r, "vertex"))
            vertex_counts[v] = vertex_counts.get(v, 0) + 1
            replica = int(get(r, "replica", -1))
            if get(r, "hedged", False):
                hedged += 1
            if get(r, "failover", False):
                failover += 1
            if get(r, "shed") or get(r, "finish_s") is None:
                shed += 1
                if replica >= 0:
                    replica_shed[replica] = replica_shed.get(replica, 0) + 1
                continue
            lat = get(r, "finish_s") - get(r, "arrival_s")
            latencies.append(lat)
            t_end = max(t_end, float(get(r, "finish_s")))
            if replica >= 0:
                per_replica.setdefault(replica, []).append(lat)
                replica_served[replica] = replica_served.get(replica, 0) + 1
        hot_vertex = min(
            vertex_counts, key=lambda v: (-vertex_counts[v], v)
        )
        lat_arr = np.array(latencies) if latencies else np.zeros(0)
        out.append(FleetWindowObservation(
            window=wi,
            t_start=float(t_start),
            t_end=float(t_end),
            offered=len(win),
            served=len(latencies),
            shed=shed,
            p50_s=float(np.percentile(lat_arr, 50)) if len(lat_arr) else 0.0,
            p95_s=float(np.percentile(lat_arr, 95)) if len(lat_arr) else 0.0,
            mean_s=float(lat_arr.mean()) if len(lat_arr) else 0.0,
            hot_vertex=int(hot_vertex),
            hot_share=vertex_counts[hot_vertex] / len(win),
            hedged=hedged,
            failover=failover,
            replica_served=dict(sorted(replica_served.items())),
            replica_shed=dict(sorted(replica_shed.items())),
            replica_mean_s={
                k: float(np.mean(v)) for k, v in sorted(per_replica.items())
            },
        ))
    return out


# ----------------------------------------------------------------------
def row(req_id, latency=0.01, vertex=0, worker=0, replica=-1, **flags):
    """One ledger row; ``latency=None`` makes it a shed."""
    arrival = 0.001 * req_id
    return RequestRecord(
        req_id=req_id, vertex=vertex, arrival_s=arrival, dispatch_s=arrival,
        finish_s=None if latency is None else arrival + latency,
        mode="shed" if latency is None else "local",
        worker=worker, shed=latency is None, replica=replica, **flags,
    )


WIDTH = 4

#: window 0 served, window 1 has no rows at all, window 2 is all sheds,
#: window 3's only rows are sheds on replica 1, window 4 is mixed (a
#: shed with no replica, a hedged and a failed-over answer), fed
#: out of req_id order.
LEDGER = [
    row(17, 0.03, vertex=9, worker=1, replica=0, hedged=True),
    row(0, 0.010, vertex=5, worker=0, replica=0),
    row(1, 0.020, vertex=5, worker=1, replica=1),
    row(3, 0.040, vertex=6, worker=1, replica=1),
    row(2, 0.030, vertex=7, worker=0, replica=0),
    row(8, None, vertex=1, worker=-1, replica=0),
    row(9, None, vertex=1, worker=-1, replica=1),
    row(10, None, vertex=2, worker=-1, replica=0),
    row(11, None, vertex=1, worker=-1),
    row(13, None, vertex=4, worker=-1, replica=1),
    row(14, None, vertex=4, worker=-1, replica=1),
    row(16, None, vertex=8, worker=-1),
    row(18, 0.05, vertex=9, worker=0, replica=2, failover=True),
]


@pytest.mark.parametrize("as_dicts", [False, True], ids=["records", "dicts"])
def test_degenerate_windows_match_the_parent_functions(as_dicts):
    ledger = [asdict(r) for r in LEDGER] if as_dicts else LEDGER
    single = window_observations_from_records(ledger, WIDTH, 2)
    fleet = fleet_window_observations_from_records(ledger, WIDTH)
    assert single == reference_windows(ledger, WIDTH, 2)
    assert fleet == reference_fleet_windows(ledger, WIDTH)
    assert [o.to_dict() for o in fleet] == [
        o.to_dict() for o in reference_fleet_windows(ledger, WIDTH)
    ]  # dict order of the per-replica maps included

    assert [o.window for o in single] == [0, 2, 3, 4]  # window 1 is empty
    all_shed = fleet[1]
    assert (all_shed.served, all_shed.shed, all_shed.p95_s) == (0, 4, 0.0)
    assert all_shed.t_end == all_shed.t_start
    assert all_shed.replica_shed == {0: 2, 1: 1}  # the replica-less shed is nobody's
    one_replica = fleet[2]
    assert one_replica.replica_shed == {1: 2}
    assert one_replica.replica_served == {} == one_replica.replica_mean_s
    assert (fleet[3].hedged, fleet[3].failover) == (1, 1)


def test_asking_for_one_window_returns_that_window_only():
    everything = summarise_windows(LEDGER, WIDTH, FleetWindowObservation)
    for wi in range(6):
        assert summarise_windows(
            LEDGER, WIDTH, FleetWindowObservation, window=wi
        ) == [o for o in everything if o.window == wi]
    assert summarise_windows([], WIDTH, WindowObservation, 2) == []


def test_recorded_ledgers_match_the_parent_functions(mitigated_runs):
    for name in ("serve-slo-burn", "serve-replica-crash", "serve-hotspot-burn"):
        run = mitigated_runs[name]
        width, nodes = run.problem.window_requests, run.problem.nodes
        ledger = run.ledger_records
        assert window_observations_from_records(
            ledger, width, nodes
        ) == reference_windows(ledger, width, nodes)
        assert fleet_window_observations_from_records(
            ledger, width
        ) == reference_fleet_windows(ledger, width)
