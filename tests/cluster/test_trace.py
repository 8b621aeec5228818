"""Chrome-trace export of a Timeline."""

import json

import pytest

from repro.cluster.timeline import CPU, GPU, IDLE, NET_RECV, Timeline
from repro.cluster.trace import _COLORS, save_chrome_trace, timeline_to_chrome_trace
from repro.resilience.engine_recovery import recover_from_crash


def busy_timeline():
    tl = Timeline(3)
    tl.advance(0, GPU, 0.5)
    tl.advance(1, CPU, 0.25)
    tl.advance(2, NET_RECV, 0.125, num_bytes=4096)
    tl.barrier()  # workers 1 and 2 get idle intervals
    return tl


class TestChromeTrace:
    def test_event_counts(self):
        tl = busy_timeline()
        trace = timeline_to_chrome_trace(tl)
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(meta) == tl.num_workers  # one thread_name row each
        assert len(complete) == len(tl.intervals)
        assert {e["args"]["name"] for e in meta} == {
            "worker 0", "worker 1", "worker 2"
        }

    def test_microsecond_conversion(self):
        tl = busy_timeline()
        by_kind = {
            e["name"]: e
            for e in timeline_to_chrome_trace(tl)["traceEvents"]
            if e["ph"] == "X"
        }
        gpu = by_kind["gpu"]
        assert gpu["ts"] == 0.0
        assert gpu["dur"] == 0.5 * 1e6
        recv = by_kind["net_recv"]
        assert recv["dur"] == 0.125 * 1e6
        assert recv["args"]["bytes"] == 4096

    def test_idle_intervals_exported(self):
        tl = busy_timeline()
        events = timeline_to_chrome_trace(tl)["traceEvents"]
        idles = [e for e in events if e["name"] == IDLE]
        assert len(idles) == 2  # workers 1 and 2 waited at the barrier
        assert {e["tid"] for e in idles} == {1, 2}
        assert all(e["cname"] == _COLORS["idle"] for e in idles)
        # Worker 1 stalled from 0.25 until the barrier time 0.5.
        w1 = next(e for e in idles if e["tid"] == 1)
        assert w1["ts"] == 0.25 * 1e6
        assert w1["dur"] == 0.25 * 1e6

    def test_all_kinds_have_colors(self):
        tl = busy_timeline()
        for event in timeline_to_chrome_trace(tl)["traceEvents"]:
            if event["ph"] == "X":
                assert event["cname"] == _COLORS[event["name"]]

    def test_save_appends_json_suffix(self, tmp_path):
        tl = busy_timeline()
        path = save_chrome_trace(tl, tmp_path / "trace")
        assert path.suffix == ".json"
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) == tl.num_workers + len(tl.intervals)

    def test_unrecorded_timeline_exports_metadata_only(self):
        tl = Timeline(2, record=False)
        tl.advance(0, GPU, 1.0)
        events = timeline_to_chrome_trace(tl)["traceEvents"]
        assert len(events) == 2  # only the thread_name rows


class TestSpanExport:
    """Serving-style annotation spans round-trip through the trace."""

    def spanned_timeline(self):
        tl = busy_timeline()
        tl.record_span(0, "batch", 0.0, 0.5, size=3, mode="local")
        tl.record_span(0, "request", 0.1, 0.45, req_id=7, vertex=12)
        tl.record_span(2, "reply", 0.125, 0.5, replies=2)
        return tl

    def test_spans_exported_alongside_intervals(self):
        tl = self.spanned_timeline()
        events = timeline_to_chrome_trace(tl)["traceEvents"]
        spans = [e for e in events if e.get("cat") == "span"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(spans) == len(tl.spans) == 3
        assert len(complete) == len(tl.intervals) + len(tl.spans)

    def test_span_round_trip_ordering_and_attribution(self, tmp_path):
        tl = self.spanned_timeline()
        path = save_chrome_trace(tl, tmp_path / "serve_trace")
        loaded = json.loads(path.read_text())
        spans = [e for e in loaded["traceEvents"] if e.get("cat") == "span"]
        # Export preserves recording order.
        assert [e["name"] for e in spans] == ["batch", "request", "reply"]
        # Worker attribution survives as the thread id.
        assert [e["tid"] for e in spans] == [0, 0, 2]
        # Microsecond conversion and args round-trip.
        request = next(e for e in spans if e["name"] == "request")
        assert request["ts"] == pytest.approx(0.1 * 1e6)
        assert request["dur"] == pytest.approx(0.35 * 1e6)
        assert request["args"] == {"req_id": 7, "vertex": 12}
        batch = next(e for e in spans if e["name"] == "batch")
        assert batch["args"] == {"size": 3, "mode": "local"}
        # Spans sit inside the simulated makespan on their worker's row.
        for e in spans:
            assert 0 <= e["ts"] and e["ts"] + e["dur"] <= tl.makespan * 1e6

    def test_spans_skipped_when_not_recording(self):
        tl = Timeline(2, record=False)
        tl.advance(0, GPU, 1.0)
        tl.record_span(0, "batch", 0.0, 1.0)
        assert tl.spans == []
        events = timeline_to_chrome_trace(tl)["traceEvents"]
        assert [e for e in events if e.get("cat") == "span"] == []

    def test_span_validation(self):
        tl = Timeline(2)
        with pytest.raises(ValueError):
            tl.record_span(5, "batch", 0.0, 1.0)
        with pytest.raises(ValueError):
            tl.record_span(0, "batch", 1.0, 0.5)


class TestOperationalSpanExport:
    """Engine-produced spans (overlap, recovery, migration) round-trip."""

    @staticmethod
    def _engine(num_workers=4, faults=None):
        from repro.cluster.spec import ClusterSpec
        from repro.comm.scheduler import CommOptions
        from repro.core.model import GNNModel
        from repro.engines import DepCommEngine
        from repro.graph import generators
        from repro.training.prep import prepare_graph

        g = generators.community(96, 4, avg_degree=10.0, seed=3)
        generators.attach_features(g, 16, 4, seed=4, class_signal=2.0)
        graph = prepare_graph(g, "gcn")
        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=2)
        cluster = ClusterSpec.ecs(num_workers)
        if faults is not None:
            cluster = cluster.with_faults(faults)
        return DepCommEngine(
            graph, model, cluster,
            record_timeline=True,
            # P optimization off => the exchange window is pure comm,
            # so the overlap marks are guaranteed positive slack to
            # fold into.
            comm=CommOptions(ring=True, lock_free=True, overlap=False),
        )

    def _crashed_engine(self):
        from repro.resilience.faults import (
            FaultSchedule,
            WorkerCrashError,
            WorkerCrashFault,
        )

        engine = self._engine(
            faults=FaultSchedule([WorkerCrashFault(worker=1, at_time=0.0)])
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            engine.charge_epoch()
        return engine, excinfo.value

    @staticmethod
    def _spans(tl, name, tmp_path, stem):
        path = save_chrome_trace(tl, tmp_path / stem)
        events = json.loads(path.read_text())["traceEvents"]
        return [
            e for e in events
            if e.get("cat") == "span" and e["name"] == name
        ]

    def test_overlap_spans_round_trip(self, tmp_path):
        engine = self._engine()
        engine.charge_epoch()
        recorded = [s for s in engine.timeline.spans if s.name == "overlap"]
        assert recorded  # the 4-worker DepComm config folds exchanges
        exported = self._spans(engine.timeline, "overlap", tmp_path, "ov")
        assert len(exported) == len(recorded)
        for span, event in zip(recorded, exported):
            assert event["tid"] == span.worker
            assert event["ts"] == pytest.approx(span.start * 1e6)
            assert event["dur"] == pytest.approx(
                (span.end - span.start) * 1e6
            )
            assert event["args"]["layer"] == span.args["layer"]
            assert event["args"]["saved_s"] == span.args["saved_s"] > 0

    def test_recovery_span_round_trip(self, tmp_path):
        engine, crash = self._crashed_engine()
        recovery_s, refetch = recover_from_crash(engine, crash)
        exported = self._spans(engine.timeline, "recovery", tmp_path, "rec")
        assert len(exported) == 1
        event = exported[0]
        assert event["tid"] == 1  # charged on the crashed worker's row
        assert event["dur"] == pytest.approx(recovery_s * 1e6)
        assert event["args"] == {
            "crashed_worker": 1,
            "refetch_bytes": refetch,
            "strategy": "restart",
        }

    def test_migration_span_round_trip(self, tmp_path):
        from repro.resilience.elastic import shrink_engine

        engine, crash = self._crashed_engine()
        shrunk, record, report = shrink_engine(engine, crash)
        exported = self._spans(shrunk.timeline, "migration", tmp_path, "mig")
        assert len(exported) == 1
        event = exported[0]
        assert event["dur"] == pytest.approx(report.seconds * 1e6)
        assert event["args"]["direction"] == "shrink"
        assert event["args"]["migrated_bytes"] == report.migrated_bytes
        assert event["args"]["num_workers"] == shrunk.cluster.num_workers
