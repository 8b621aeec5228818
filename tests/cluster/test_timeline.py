"""Timeline clocks, barriers, and utilization traces."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import CPU, GPU, NET_RECV, NET_SEND, Timeline


class TestClocks:
    def test_advance_moves_clock(self):
        tl = Timeline(2)
        tl.advance(0, GPU, 1.5)
        assert tl.now(0) == pytest.approx(1.5)
        assert tl.now(1) == 0.0

    def test_zero_duration_noop(self):
        tl = Timeline(1)
        tl.advance(0, GPU, 0.0)
        assert tl.now(0) == 0.0
        assert not tl.intervals

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline(1).advance(0, GPU, -1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Timeline(1).advance(0, "quantum", 1.0)

    def test_barrier_synchronises(self):
        tl = Timeline(3)
        tl.advance(0, GPU, 1.0)
        tl.advance(2, CPU, 3.0)
        t = tl.barrier()
        assert t == pytest.approx(3.0)
        assert (tl.clocks == 3.0).all()

    def test_partial_barrier(self):
        tl = Timeline(3)
        tl.advance(0, GPU, 1.0)
        tl.advance(1, GPU, 2.0)
        tl.barrier(workers=[0, 1])
        assert tl.now(0) == tl.now(1) == pytest.approx(2.0)
        assert tl.now(2) == 0.0

    def test_advance_at_least_until_never_rewinds(self):
        tl = Timeline(1)
        tl.advance(0, GPU, 5.0)
        tl.advance_at_least_until(0, 2.0)
        assert tl.now(0) == pytest.approx(5.0)

    def test_makespan(self):
        tl = Timeline(2)
        tl.advance(1, NET_SEND, 4.0)
        assert tl.makespan == pytest.approx(4.0)

    def test_needs_a_worker(self):
        with pytest.raises(ValueError):
            Timeline(0)


class TestRecording:
    def test_intervals_recorded(self):
        tl = Timeline(1)
        tl.advance(0, GPU, 1.0, num_bytes=7)
        iv = tl.intervals[0]
        assert iv.kind == GPU and iv.duration == pytest.approx(1.0)
        assert iv.num_bytes == 7

    def test_record_interval_without_clock_motion(self):
        tl = Timeline(1)
        tl.record_interval(0, NET_RECV, start=0.0, duration=2.0, num_bytes=10)
        assert tl.now(0) == 0.0
        assert tl.totals[NET_RECV][0] == pytest.approx(2.0)

    def test_recording_disabled(self):
        tl = Timeline(1, record=False)
        tl.advance(0, GPU, 1.0)
        assert not tl.intervals
        assert tl.totals[GPU][0] == pytest.approx(1.0)  # totals still kept


class TestBulkRecording:
    @settings(max_examples=200, deadline=None)
    @given(
        start=st.floats(0.0, 1e3, allow_nan=False),
        total=st.floats(0.0, 1e3, allow_nan=False),
        duration=st.floats(0.0, 1e-2, allow_nan=False),
        count=st.integers(0, 40),
        record=st.booleans(),
    )
    def test_advance_repeated_is_the_advance_loop_bit_for_bit(
        self, start, total, duration, count, record
    ):
        """The premise behind the one-pass serving reply: ``count``
        repeated ``advance`` calls add ``duration`` left to right, and
        so does ``advance_repeated`` -- clocks, totals, returned clocks
        and recorded intervals are the same bits."""
        loop, bulk = Timeline(2, record=record), Timeline(2, record=record)
        for tl in (loop, bulk):
            tl.advance_at_least_until(1, start)
            tl.totals[NET_SEND][1] = total
        ends = []
        for _ in range(count):
            loop.advance(1, NET_SEND, duration, num_bytes=64)
            ends.append(loop.now(1))
        got = bulk.advance_repeated(1, NET_SEND, duration, count, num_bytes=64)
        assert [e.hex() for e in got] == [e.hex() for e in ends]
        assert loop.clocks.tobytes() == bulk.clocks.tobytes()
        assert loop.totals[NET_SEND].tobytes() == bulk.totals[NET_SEND].tobytes()
        assert loop.intervals == bulk.intervals

    def test_advance_repeated_validates_like_advance(self):
        with pytest.raises(ValueError):
            Timeline(1).advance_repeated(0, NET_SEND, -1.0, 2)
        with pytest.raises(ValueError):
            Timeline(1).advance_repeated(0, "quantum", 1.0, 2)

    def test_record_spans_is_the_record_span_loop(self):
        one, bulk = Timeline(2), Timeline(2)
        spans = [
            ("batch", 0.0, 0.5, {"size": 2}),
            ("request", 0.25, 0.25, {}),
            ("reply", 0.5, 2.0, {"replies": 2}),
        ]
        for name, start, end, args in spans:
            one.record_span(1, name, start, end, **args)
        bulk.record_spans(1, spans)
        assert one.spans == bulk.spans
        with pytest.raises(ValueError):
            bulk.record_spans(1, [("request", 1.0, 0.5, None)])
        with pytest.raises(ValueError):
            bulk.record_spans(2, [("request", 0.0, 0.5, None)])


class TestUtilization:
    def test_bytes_per_window(self):
        tl = Timeline(1)
        tl.advance(0, NET_RECV, 0.5, num_bytes=100)
        tl.advance(0, NET_RECV, 1.0, num_bytes=300)
        received = tl.bytes_per_window(window=1.0)
        assert received.sum() == 400

    def test_empty_horizon(self):
        tl = Timeline(1)
        assert len(tl.bytes_per_window(window=1.0)) == 0

    def test_utilization_summary_fractions(self):
        tl = Timeline(2)
        tl.advance(0, GPU, 1.0)
        tl.advance(1, GPU, 1.0)
        tl.barrier()
        summary = tl.utilization_summary()
        assert summary[GPU] == pytest.approx(1.0)
        assert summary[CPU] == 0.0


class TestClusterSpec:
    def test_factories(self):
        assert ClusterSpec.ecs(16).num_workers == 16
        assert ClusterSpec.ibv().device.name == "V100"
        assert ClusterSpec.single_gpu().num_workers == 1
        assert not ClusterSpec.cpu().device.is_gpu

    def test_needs_a_worker(self):
        with pytest.raises(ValueError):
            ClusterSpec(0)
