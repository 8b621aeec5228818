"""The inference server: exactness, determinism, caching, SLOs, faults."""

import numpy as np
import pytest

from repro.core.blocks import build_block
from repro.core.model import GNNModel
from repro.partition.hashing import hash_partition
from repro.resilience.faults import (
    FaultSchedule,
    MessageLossFault,
    WorkerCrashFault,
)
from repro.resilience.injector import FaultInjector
from repro.serving import (
    InferenceServer,
    Request,
    ServingConfig,
    SLOConfig,
    WorkloadConfig,
    generate_workload,
)
from repro.tensor.tensor import Tensor, no_grad


@pytest.fixture
def serving_parts(small_graph, cluster4):
    model = GNNModel.build(
        "gcn", small_graph.feature_dim, 12, small_graph.num_classes, seed=7
    )
    partitioning = hash_partition(small_graph, 4)
    return small_graph, model, cluster4, partitioning


def make_server(serving_parts, config=None, faults=None, **kwargs):
    graph, model, cluster, partitioning = serving_parts
    return InferenceServer(
        graph, model, cluster, partitioning, config=config, faults=faults,
        **kwargs,
    )


def workload(graph, n=60, rate=5000.0, seed=11, zipf=1.2):
    return generate_workload(
        WorkloadConfig(num_requests=n, rate_rps=rate, zipf_exponent=zipf,
                       seed=seed),
        graph.num_vertices,
    )


def full_graph_logits(graph, model):
    """Reference: an exact full-graph layer-by-layer forward."""
    ids = np.arange(graph.num_vertices, dtype=np.int64)
    prev = graph.features.astype(np.float64)
    for l in range(1, model.num_layers + 1):
        block = build_block(graph, ids)
        pos = np.searchsorted(ids, block.input_vertices)
        with no_grad():
            out = model.layer(l).forward(block, Tensor(prev[pos]))
        prev = out.data
    return prev


class TestExactness:
    def test_predictions_match_full_graph_forward(self, serving_parts):
        graph, model, _, _ = serving_parts
        reference = np.argmax(full_graph_logits(graph, model), axis=1)
        requests = workload(graph)
        result = make_server(serving_parts).serve(requests)
        assert len(result.predictions) == len(requests)
        for r in requests:
            assert result.predictions[r.req_id] == reference[r.vertex]

    def test_batched_cached_and_remote_agree(self, serving_parts):
        graph = serving_parts[0]
        requests = workload(graph)
        unbatched = make_server(
            serving_parts, ServingConfig(batch_window_s=0.0, max_batch=1)
        ).serve(requests)
        batched = make_server(
            serving_parts, ServingConfig(batch_window_s=0.005, max_batch=32)
        ).serve(requests)
        cached = make_server(
            serving_parts,
            ServingConfig(batch_window_s=0.005, max_batch=32, tau_s=10.0),
        ).serve(requests)
        remote = make_server(
            serving_parts,
            ServingConfig(batch_window_s=0.005, max_batch=32, mode="remote"),
        ).serve(requests)
        assert batched.predictions == unbatched.predictions
        assert cached.predictions == unbatched.predictions
        assert remote.predictions == unbatched.predictions
        assert batched.num_batches < unbatched.num_batches


class TestSegmentedServing:
    """Continuation state threaded through serve() across segments."""

    @staticmethod
    def _segmented(server, requests, width):
        from repro.cluster.timeline import Timeline
        from repro.serving.slo import LatencyLedger

        state = {
            "timeline": Timeline(server.cluster.num_workers),
            "ledger": LatencyLedger(),
            "predictions": {},
            "inflight": [],
        }
        for i in range(0, len(requests), width):
            server.serve(requests[i:i + width], **state)
        return state

    def test_segmented_equals_one_shot(self, serving_parts):
        # One request per batch, so segment boundaries cannot change
        # the batching; the segmented run must then be bit-identical.
        graph = serving_parts[0]
        requests = workload(graph)
        config = ServingConfig(batch_window_s=0.0, max_batch=1)
        one = make_server(serving_parts, config).serve(requests)
        state = self._segmented(
            make_server(serving_parts, config), requests, width=15
        )
        assert state["ledger"].to_dict() == one.ledger.to_dict()
        assert state["predictions"] == one.predictions
        assert state["timeline"].makespan == one.timeline.makespan

    def test_segmented_equals_one_shot_under_faults(self, serving_parts):
        from repro.resilience.faults import StragglerFault

        graph = serving_parts[0]
        requests = workload(graph)
        config = ServingConfig(batch_window_s=0.0, max_batch=1, mode="local")
        faults = lambda: FaultSchedule(  # noqa: E731 - fresh per server
            [StragglerFault(worker=1, gpu_factor=20.0, start=0.002)]
        )
        one = make_server(serving_parts, config, faults=faults()).serve(
            requests
        )
        state = self._segmented(
            make_server(serving_parts, config, faults=faults()),
            requests, width=20,
        )
        assert state["ledger"].to_dict() == one.ledger.to_dict()

    def test_fault_window_straddling_segment_boundary(self, serving_parts):
        """A bounded fault window that opens in one segment and closes
        in the next must charge identically whether the stream is served
        in one shot or segment by segment -- the continuation carries no
        hidden fault state."""
        from repro.resilience.faults import StragglerFault

        graph = serving_parts[0]
        requests = workload(graph)
        width = 20
        boundary_t = requests[width].arrival_s
        start, end = boundary_t - 0.0015, boundary_t + 0.0015
        # The window genuinely crosses the segment boundary.
        assert requests[width - 1].arrival_s < end
        assert requests[width].arrival_s > start
        config = ServingConfig(batch_window_s=0.0, max_batch=1, mode="local")
        faults = lambda: FaultSchedule(  # noqa: E731 - fresh per server
            [StragglerFault(worker=1, gpu_factor=25.0, start=start, end=end)]
        )
        one = make_server(serving_parts, config, faults=faults()).serve(
            requests
        )
        state = self._segmented(
            make_server(serving_parts, config, faults=faults()),
            requests, width=width,
        )
        assert state["ledger"].to_dict() == one.ledger.to_dict()
        assert state["predictions"] == one.predictions
        assert state["timeline"].makespan == one.timeline.makespan
        # The window did bite: some request slowed relative to fault-free.
        clean = make_server(serving_parts, config).serve(requests)
        assert one.ledger.p99_s > clean.ledger.p99_s

    def test_mid_stream_config_change_applies_to_later_segments(
        self, serving_parts
    ):
        graph = serving_parts[0]
        requests = workload(graph, n=60, rate=20000.0)
        server = make_server(
            serving_parts, ServingConfig(batch_window_s=0.0, max_batch=1)
        )
        state = self._segmented(server, requests[:30], width=30)
        assert not any(r.shed for r in state["ledger"].records)
        # Tighten admission control between segments: only the second
        # half may shed.
        server.config = ServingConfig(
            batch_window_s=0.0, max_batch=1,
            slo=SLOConfig(max_pending=1),
        )
        server.serve(requests[30:], **state)
        shed_ids = [r.req_id for r in state["ledger"].records if r.shed]
        assert shed_ids
        assert min(shed_ids) >= 30


class TestDeterminism:
    def test_same_seed_bit_identical_ledger(self, serving_parts):
        graph = serving_parts[0]
        requests = workload(graph)
        config = ServingConfig(batch_window_s=0.003, max_batch=16, tau_s=0.05)
        a = make_server(serving_parts, config).serve(requests)
        b = make_server(serving_parts, config).serve(requests)
        assert a.ledger.to_dict() == b.ledger.to_dict()
        assert a.predictions == b.predictions


class TestCache:
    def test_tau_zero_never_hits(self, serving_parts):
        graph = serving_parts[0]
        result = make_server(
            serving_parts, ServingConfig(tau_s=0.0)
        ).serve(workload(graph))
        assert result.cache.counters.hits == 0
        assert all(r.mode != "cached" for r in result.ledger.records)

    def test_large_tau_serves_repeats_from_cache(self, serving_parts):
        graph = serving_parts[0]
        result = make_server(
            serving_parts, ServingConfig(tau_s=10.0)
        ).serve(workload(graph))
        cached = [r for r in result.ledger.records if r.mode == "cached"]
        assert result.cache.counters.hits > 0
        assert cached
        assert all(r.staleness_s >= 0 for r in cached)
        assert result.ledger.mean_staleness_s() > 0
        assert all(r.comm_bytes == 0.0 for r in cached)

    def test_raising_tau_never_raises_comm(self, serving_parts):
        graph = serving_parts[0]
        requests = workload(graph, n=80)
        totals = []
        for tau in (0.0, 0.005, 0.05, 10.0):
            result = make_server(
                serving_parts,
                ServingConfig(batch_window_s=0.002, max_batch=16,
                              tau_s=tau, mode="remote"),
            ).serve(requests)
            totals.append(result.ledger.total_comm_bytes)
        assert totals == sorted(totals, reverse=True)
        assert totals[-1] < totals[0]


class TestSLO:
    def test_overload_sheds(self, serving_parts):
        graph = serving_parts[0]
        requests = workload(graph, n=80, rate=200000.0)
        result = make_server(
            serving_parts,
            ServingConfig(slo=SLOConfig(max_pending=4)),
        ).serve(requests)
        assert result.ledger.shed_count > 0
        shed = [r for r in result.ledger.records if r.shed]
        assert all(r.mode == "shed" and r.worker == -1 for r in shed)
        assert all(r.latency_s is None for r in shed)
        # Every offered request is in the ledger exactly once.
        assert sorted(r.req_id for r in result.ledger.records) == list(range(80))

    def test_no_bound_serves_everything(self, serving_parts):
        graph = serving_parts[0]
        result = make_server(serving_parts).serve(workload(graph))
        assert result.ledger.shed_count == 0
        assert len(result.ledger.served()) == 60


class TestDegradedServing:
    def test_crashed_owner_falls_back(self, serving_parts):
        graph = serving_parts[0]
        faults = FaultSchedule([WorkerCrashFault(worker=1, at_time=0.0)])
        result = make_server(serving_parts, faults=faults).serve(
            workload(graph)
        )
        served = result.ledger.served()
        assert len(served) == 60  # nothing fails outright
        assert all(r.worker != 1 for r in served)
        assert result.ledger.degraded_count > 0

    def test_remote_mode_excludes_dead_workers(self, serving_parts):
        graph = serving_parts[0]
        faults = FaultSchedule([WorkerCrashFault(worker=2, at_time=0.0)])
        result = make_server(
            serving_parts,
            ServingConfig(batch_window_s=0.003, max_batch=16, mode="remote"),
            faults=faults,
        ).serve(workload(graph))
        assert len(result.ledger.served()) == 60
        # Worker 2's clock never moves: it took part in nothing.
        assert result.timeline.now(2) == 0.0

    def test_message_loss_is_retransmitted(self, serving_parts, monkeypatch):
        """A lossy network costs a served request what it costs an
        epoch: dropped chunks are re-sent after a timeout and backoff."""
        made = []

        class Recording(FaultInjector):
            def __init__(self, schedule):
                super().__init__(schedule)
                made.append(self)

        monkeypatch.setattr("repro.serving.server.FaultInjector", Recording)
        graph = serving_parts[0]
        config = ServingConfig(mode="remote")
        clean = make_server(serving_parts, config).serve(workload(graph))
        faults = FaultSchedule([MessageLossFault(drop_fraction=0.5)], seed=3)
        lossy = make_server(serving_parts, config, faults=faults).serve(
            workload(graph)
        )
        (injector,) = made
        assert injector.total_retries > 0
        assert lossy.timeline.makespan > clean.timeline.makespan
        assert len(lossy.ledger.served()) == 60

    def test_all_dead_sheds_everything(self, serving_parts):
        graph = serving_parts[0]
        faults = FaultSchedule(
            [WorkerCrashFault(worker=w, at_time=0.0) for w in range(4)]
        )
        result = make_server(serving_parts, faults=faults).serve(
            workload(graph, n=10)
        )
        assert result.ledger.shed_count == 10


class TestTimeline:
    def test_spans_recorded_with_attribution(self, serving_parts):
        graph = serving_parts[0]
        result = make_server(serving_parts).serve(workload(graph))
        spans = result.timeline.spans
        assert spans
        names = {s.name for s in spans}
        assert "batch" in names and "request" in names and "reply" in names
        assert names <= {"batch", "compute", "fetch", "request", "reply"}
        assert all(0 <= s.worker < 4 for s in spans)
        assert all(s.end >= s.start for s in spans)
        request_spans = [s for s in spans if s.name == "request"]
        assert len(request_spans) == 60
        served_workers = {
            r.req_id: r.worker for r in result.ledger.served()
        }
        for s in request_spans:
            assert s.worker == served_workers[s.args["req_id"]]

    def test_record_timeline_false_skips_spans(self, serving_parts):
        graph = serving_parts[0]
        result = make_server(serving_parts, record_timeline=False).serve(
            workload(graph, n=20)
        )
        assert result.timeline.spans == []
        assert len(result.ledger.served()) == 20

    def test_summary_keys(self, serving_parts):
        graph = serving_parts[0]
        result = make_server(serving_parts).serve(workload(graph, n=20))
        summary = result.summary()
        for key in ("num_requests", "served", "latency_p99_ms",
                    "throughput_rps", "num_batches", "cache_hits",
                    "makespan_s"):
            assert key in summary
        assert "records" not in summary
        assert result.makespan_s > 0


class TestValidation:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ServingConfig(tau_s=-1.0)
        with pytest.raises(ValueError):
            ServingConfig(mode="cached")  # planner-only mode
        with pytest.raises(ValueError):
            SLOConfig(max_pending=0)

    def test_rejects_featureless_graph(self, serving_parts, small_graph):
        graph, model, cluster, partitioning = serving_parts
        import copy

        bare = copy.copy(graph)
        bare.features = None
        with pytest.raises(ValueError):
            InferenceServer(bare, model, cluster, partitioning)

    def test_rejects_mismatched_partitioning(self, serving_parts, tiny_graph):
        graph, model, cluster, _ = serving_parts
        wrong = hash_partition(tiny_graph, 4)
        with pytest.raises(ValueError):
            InferenceServer(graph, model, cluster, wrong)

    @pytest.mark.parametrize("end", ["negative", "past-the-end"])
    def test_rejects_out_of_range_vertex(self, serving_parts, end):
        graph = serving_parts[0]
        vertex = -1 if end == "negative" else graph.num_vertices
        requests = workload(graph, n=8)
        requests[5] = Request(req_id=5, vertex=vertex, arrival_s=requests[5].arrival_s)
        with pytest.raises(
            ValueError, match=rf"request 5: vertex {vertex} is not a vertex id"
        ):
            make_server(serving_parts).serve(requests)
