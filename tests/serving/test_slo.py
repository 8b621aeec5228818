"""The columnar latency ledger equals the same summaries over its rows."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.serving.slo import COLUMNS, LatencyLedger, RequestRecord


def _row_summary(records):
    """Every summary, computed over :class:`RequestRecord` rows the way
    the row-based ledger did."""
    served = [r for r in records if not r.shed]
    latencies = np.array([r.latency_s for r in records if r.latency_s is not None])
    modes = {}
    for r in records:
        modes[r.mode] = modes.get(r.mode, 0) + 1
    stale = [r.staleness_s for r in records if r.mode == "cached"]
    span = (
        max(r.finish_s for r in served) - min(r.arrival_s for r in records)
        if served else 0.0
    )
    return {
        "latencies": latencies.tobytes(),
        "p99": float(np.percentile(latencies, 99.0)) if len(latencies) else 0.0,
        "mean": float(latencies.mean()) if len(latencies) else 0.0,
        "throughput": (
            0.0 if not served else len(served) / span if span > 0 else float("inf")
        ),
        "shed": sum(1 for r in records if r.shed),
        "degraded": sum(1 for r in records if r.degraded),
        "modes": list(modes.items()),
        "comm": float(sum(r.comm_bytes for r in records)),
        "staleness": float(np.mean(stale)) if stale else 0.0,
    }


def _ledger_summary(ledger):
    return {
        "latencies": ledger.latencies_s().tobytes(),
        "p99": ledger.p99_s,
        "mean": ledger.mean_s,
        "throughput": ledger.throughput_rps(),
        "shed": ledger.shed_count,
        "degraded": ledger.degraded_count,
        "modes": list(ledger.mode_counts().items()),
        "comm": ledger.total_comm_bytes,
        "staleness": ledger.mean_staleness_s(),
    }


_times = st.floats(0.0, 10.0, allow_nan=False)


@st.composite
def _records(draw):
    shed = draw(st.booleans())
    arrival = draw(_times)
    return RequestRecord(
        req_id=draw(st.integers(0, 10**6)),
        vertex=draw(st.integers(0, 100)),
        arrival_s=arrival,
        dispatch_s=arrival,
        finish_s=None if shed else arrival + draw(_times),
        mode="shed" if shed else draw(st.sampled_from(["cached", "local", "remote"])),
        worker=-1 if shed else draw(st.integers(0, 3)),
        comm_bytes=0.0 if shed else draw(st.floats(0.0, 1e9, allow_nan=False)),
        staleness_s=0.0 if shed else draw(_times),
        shed=shed,
        degraded=draw(st.booleans()),
    )


@settings(max_examples=100, deadline=None)
@given(records=st.lists(_records(), max_size=30), split=st.integers(0, 30))
def test_columns_summarise_as_the_rows_do(records, split):
    """Rows appended as tuples (as the server does) or one record at a
    time (as the fleet does) give the same row view and summaries."""
    ledger = LatencyLedger()
    ledger.extend([dataclasses.astuple(r)[:11] for r in records[:split]])
    for r in records[split:]:
        ledger.add(r)
    assert len(ledger) == len(records)
    assert ledger.records == records
    assert _ledger_summary(ledger) == _row_summary(records)
    assert ledger.to_dict()["records"] == [LatencyLedger._record_dict(r) for r in records]


def test_extend_fills_the_fields_left_out_with_their_defaults():
    ledger = LatencyLedger()
    ledger.extend([(7, 3, 0.5, 0.5, 0.75, "local", 2)])
    assert ledger.records == [RequestRecord(7, 3, 0.5, 0.5, 0.75, "local", 2)]
    assert list(ledger.columns) == list(COLUMNS)


def test_total_comm_bytes_is_the_left_to_right_row_sum():
    """The premise behind the columnar total: it is Python's
    left-to-right ``sum``, as over the rows -- not numpy's pairwise
    ``np.sum``, which rounds this input differently."""
    comm = [1e16] + [1.0] * 15
    assert float(np.sum(comm)) != sum(comm)
    ledger = LatencyLedger()
    ledger.extend([
        (i, 0, 0.0, 0.0, 1.0, "remote", 0, c) for i, c in enumerate(comm)
    ])
    assert ledger.total_comm_bytes.hex() == float(sum(comm)).hex()
    rows = float(sum(r.comm_bytes for r in ledger.records))
    assert ledger.total_comm_bytes.hex() == rows.hex()
