"""The online inference server.

An :class:`InferenceServer` answers a time-ordered stream of node-level
prediction requests against a trained model on the partitioned cluster.
Execution is simulated on the same :class:`~repro.cluster.timeline.Timeline`
the training engines charge, so request latency is made of the same
ingredients as epoch time: wire time and latency from the
:class:`~repro.cluster.network.NetworkProfile`, compute priced by the
probed ``T_v`` / ``T_e`` constants, BSP exchanges through
:func:`~repro.comm.scheduler.run_exchange`.

Per micro-batch the server:

1. applies admission control (``SLOConfig.max_pending``), shedding
   requests that arrive over a full backlog;
2. serves vertices whose historical embedding is still inside the
   staleness bound ``tau_s`` straight from the cache (staleness keyed
   to the *arrival time* of the batch's oldest request per vertex, so
   raising ``tau_s`` can only merge recompute events, never add them);
3. recomputes the rest, either **locally** on the coordinating worker
   (DepCache-style closure recompute, zero traffic) or **remotely**
   as a distributed layer-by-layer forward (DepComm-style exchanges);
4. replies, appending one :class:`~repro.serving.slo.RequestRecord`
   per request to the ledger.

Numerically every answer is exact: computed answers run the real model
forward over the union closure, and cached answers replay previously
computed rows bit-for-bit (embeddings are static after training), so
batching and caching change *when* and *where* work happens -- never
the predictions.  On the host, ``serve()`` sees its whole
request stream before the first batch, so it prices every requested
vertex's closure up front (:meth:`RequestPlanner.profiles`) and has a
:class:`~repro.execution.executor.ClosureMemo` compute every row those
closures need once: the model is frozen, so a batch's forward becomes a
lookup of byte-identical rows, while the modeled clock still charges
the whole closure.  Where the memo cannot show that its rows are the
closure forward's bytes, it runs that forward instead.

When a :class:`~repro.resilience.faults.FaultSchedule` marks workers
crashed, serving degrades instead of failing: a dead coordinator is
replaced by the next alive worker in the ring, the dead worker's
compute share folds into the coordinator, exchanges run with
``participants`` restricted to live workers, and expired cache entries
are served stale ("stale-if-error") when the owner is dead.  All such
answers carry ``degraded=True`` in the ledger.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cache.historical import HistoricalEmbeddingCache
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import CPU, GPU, NET_RECV, NET_SEND, Timeline
from repro.comm.scheduler import CommOptions, run_exchange
from repro.core.model import GNNModel
from repro.costmodel.probe import ProbeResult, probe_constants
from repro.execution.executor import ClosureMemo, StalenessBoundedReader
from repro.graph.graph import Graph
# Not called here: every serving closure comes from the planner.  The
# name stays bound because benchmarks/e2e/test_tracer.py uses it as its
# example of a from-import the tracer must re-bind; delete this line
# once that test points at repro.serving.planner.
from repro.graph.khop import khop_closure  # noqa: F401
from repro.partition.base import Partitioning
from repro.resilience.faults import FaultSchedule
from repro.resilience.injector import FaultInjector
from repro.serving.batcher import MicroBatch, MicroBatcher
from repro.serving.planner import RequestPlanner
from repro.serving.slo import LatencyLedger, RequestRecord, SLOConfig
from repro.serving.workload import Request

_SERVE_MODES = ("auto", "local", "remote")

#: Size of one client request / reply message on the wire.
REQUEST_BYTES = 64
REPLY_BYTES = 64
#: Coordinator CPU seconds to probe the embedding store per cached answer.
CACHE_LOOKUP_S = 5e-6
#: Serving exchanges run with every communication optimisation on.
COMM = CommOptions.all()


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving run.

    ``tau_s`` bounds how stale a served historical embedding may be, in
    seconds of simulated time (0 disables the cache: every request
    recomputes).  ``mode`` forces local/remote recompute or lets the
    planner pick per batch.
    """

    batch_window_s: float = 0.002
    max_batch: int = 32
    tau_s: float = 0.0
    mode: str = "auto"
    slo: SLOConfig = field(default_factory=SLOConfig)

    def __post_init__(self):
        if self.mode not in _SERVE_MODES:
            raise ValueError(f"mode must be one of {_SERVE_MODES}, got {self.mode!r}")
        if self.tau_s < 0:
            raise ValueError("tau_s must be >= 0")


@dataclass
class ServingResult:
    """Everything one serving run produced."""

    ledger: LatencyLedger
    predictions: Dict[int, int]
    timeline: Timeline
    num_batches: int
    cache: HistoricalEmbeddingCache

    @property
    def makespan_s(self) -> float:
        return self.timeline.makespan

    def summary(self) -> Dict[str, object]:
        out = self.ledger.to_dict()
        del out["records"]
        out["num_batches"] = self.num_batches
        out["cache_hits"] = self.cache.counters.hits
        out["cache_expirations"] = self.cache.counters.expirations
        out["makespan_s"] = self.makespan_s
        return out


class InferenceServer:
    """Serves node-level predictions on the partitioned cluster."""

    def __init__(
        self,
        graph: Graph,
        model: GNNModel,
        cluster: ClusterSpec,
        partitioning: Partitioning,
        config: Optional[ServingConfig] = None,
        constants: Optional[ProbeResult] = None,
        faults: Optional[FaultSchedule] = None,
        record_timeline: bool = True,
    ):
        if graph.features is None:
            raise ValueError("serving needs a graph with features")
        if len(partitioning.assignment) != graph.num_vertices:
            raise ValueError("partitioning does not match the graph")
        cluster.with_faults(faults)  # a fault on a worker we lack is an error
        self.graph = graph
        self.model = model
        self.cluster = cluster
        self.partitioning = partitioning
        self.config = config or ServingConfig()
        self.constants = constants or probe_constants(cluster, model)
        self.faults = faults if faults else None
        self.record_timeline = record_timeline
        self.num_layers = model.num_layers
        self.dims = model.dims()
        self.planner = RequestPlanner(
            graph,
            partitioning,
            self.constants,
            self.num_layers,
            cluster.network,
            mode=self.config.mode,
        )
        # Historical h^L rows, one logical layer, stamped in microseconds
        # of simulated arrival time (tau_s converts to the same unit).
        # Reads go through the same StalenessBoundedReader the training
        # gather uses, so the freshness rule cannot fork between paths.
        self.cache = HistoricalEmbeddingCache(
            num_layers=1, tau=self.config.tau_s * 1e6
        )
        self.reader = StalenessBoundedReader(self.cache)
        # Host-side and exact, unlike the modeled cache above: the frozen
        # model's rows, computed once and charged as if recomputed.
        self.closure_memo = ClosureMemo(model, graph)

    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Sequence[Request],
        timeline: Optional[Timeline] = None,
        ledger: Optional[LatencyLedger] = None,
        predictions: Optional[Dict[int, int]] = None,
        inflight: Optional[List[float]] = None,
    ) -> ServingResult:
        """Run a request stream (or one segment of it) and return the ledger.

        With the default ``None`` state arguments the whole stream is
        served against fresh state -- the historical behavior.  Passing
        the ``timeline`` / ``ledger`` / ``predictions`` / ``inflight``
        of a previous call continues that run instead, so a caller (the
        ops harness) can serve a stream in segments, observe the ledger
        between segments, and retune ``self.config`` mid-stream (e.g.
        tighten admission control) without forking the simulated clock.
        ``inflight`` (finish times of admitted requests) is kept sorted,
        so admission counts the still-pending ones by bisection whatever
        order the segments' arrivals come in.
        """
        cfg = self.config
        network = self.cluster.network
        m = self.cluster.num_workers
        if timeline is None:
            timeline = Timeline(m, record=self.record_timeline)
        injector = FaultInjector(self.faults) if self.faults else None
        batcher = MicroBatcher(cfg.batch_window_s, cfg.max_batch)
        batches = batcher.batches(requests)
        if ledger is None:
            ledger = LatencyLedger()
        if predictions is None:
            predictions = {}
        if inflight is None:
            inflight = []

        # The whole stream is known before the first batch runs, so every
        # requested vertex's closure and price, and every row the memo can
        # keep for those closures, are computed here in a few vectorised
        # calls; a batch then only merges closures and looks rows up.
        profiles = self.planner.profiles(sorted({r.vertex for r in requests}))
        self.closure_memo.fill([p.vertex_layers for p in profiles])
        for batch in batches:
            self._serve_batch(
                batch, timeline, network, injector, ledger, predictions, inflight
            )
        return ServingResult(
            ledger=ledger,
            predictions=predictions,
            timeline=timeline,
            num_batches=len(batches),
            cache=self.cache,
        )

    # ------------------------------------------------------------------
    def _dead_workers(self, t: float) -> set:
        if self.faults is None:
            return set()
        return {c.worker for c in self.faults.crashes() if c.at_time <= t}

    @staticmethod
    def _fallback(worker: int, dead: set, m: int) -> int:
        for step in range(m):
            candidate = (worker + step) % m
            if candidate not in dead:
                return candidate
        raise RuntimeError("no alive worker to serve on")

    def _serve_batch(
        self,
        batch: MicroBatch,
        timeline: Timeline,
        network,
        injector: Optional[FaultInjector],
        ledger: LatencyLedger,
        predictions: Dict[int, int],
        inflight: List[float],
    ) -> None:
        cfg = self.config
        m = self.cluster.num_workers
        dead = self._dead_workers(batch.dispatch_s)
        alive = [w for w in range(m) if w not in dead]

        # -- admission -------------------------------------------------
        admitted: List[Request] = []
        for r in batch.requests:
            pending = (
                len(inflight) - bisect_right(inflight, r.arrival_s) + len(admitted)
            )
            overloaded = (
                cfg.slo.max_pending is not None and pending >= cfg.slo.max_pending
            )
            if overloaded or not alive:
                ledger.add(RequestRecord(
                    req_id=r.req_id, vertex=r.vertex, arrival_s=r.arrival_s,
                    dispatch_s=batch.dispatch_s, finish_s=None, mode="shed",
                    worker=-1, shed=True,
                ))
                continue
            admitted.append(r)
        if not admitted:
            return

        # Split the batch by owning worker: each group serves on its own
        # coordinator, so independent groups proceed in parallel across
        # the cluster (dedup happens within a group; unrelated vertices
        # on other workers never wait on it).
        groups: Dict[int, List[Request]] = {}
        for r in admitted:
            owner = self.partitioning.owner(r.vertex)
            coordinator = self._fallback(owner, dead, m)
            groups.setdefault(coordinator, []).append(r)
        for coordinator, group in groups.items():
            self._serve_group(
                batch, group, coordinator, dead, alive,
                timeline, network, injector, ledger, predictions, inflight,
            )

    def _serve_group(
        self,
        batch: MicroBatch,
        admitted: List[Request],
        coordinator: int,
        dead: set,
        alive: List[int],
        timeline: Timeline,
        network,
        injector: Optional[FaultInjector],
        ledger: LatencyLedger,
        predictions: Dict[int, int],
        inflight: List[float],
    ) -> None:
        cfg = self.config
        coord_degraded = any(
            self.partitioning.owner(r.vertex) != coordinator for r in admitted
        )

        timeline.advance_at_least_until(coordinator, batch.dispatch_s)

        # -- ingress: the clients' requests reach the coordinator ------
        ingress_bytes = REQUEST_BYTES * len(admitted)
        if ingress_bytes > 0:
            timeline.advance(
                coordinator, NET_RECV, network.wire_time(ingress_bytes),
                num_bytes=ingress_bytes,
            )

        # -- staleness-bounded cache probe, keyed per vertex to the ----
        # -- arrival of the batch's oldest request for that vertex -----
        distinct: List[int] = []
        key_us: Dict[int, int] = {}
        for r in admitted:
            if r.vertex not in key_us:
                key_us[r.vertex] = int(round(r.arrival_s * 1e6))
                distinct.append(r.vertex)
        cached_rows: Dict[int, np.ndarray] = {}
        staleness: Dict[int, float] = {}
        stale_if_error: Dict[int, bool] = {}
        for v in distinct:
            # Serving an expired entry stale beats failing the request
            # outright when the owner is down ("stale-if-error").
            row, stamp, served_expired = self.reader.probe(
                1, v, key_us[v],
                allow_expired=self.partitioning.owner(v) in dead,
            )
            if row is not None:
                cached_rows[v] = row
                staleness[v] = (key_us[v] - stamp) / 1e6
                stale_if_error[v] = served_expired

        num_cache_hits = sum(
            1 for r in admitted if r.vertex in cached_rows
        )
        if num_cache_hits:
            timeline.advance(coordinator, CPU, CACHE_LOOKUP_S * num_cache_hits)

        computed = [v for v in distinct if v not in cached_rows]
        computed_set = set(computed)

        # -- recompute the rest ----------------------------------------
        batch_bytes = 0.0
        mode = "cached"
        t_compute_start = timeline.now(coordinator)
        if computed:
            mode, vertex_layers, edge_layers = self.planner.plan_batch(computed)
            if mode == "local":
                self._charge_local(
                    timeline, coordinator, vertex_layers, edge_layers
                )
            else:
                batch_bytes = self._charge_remote(
                    timeline, network, injector, coordinator, alive, dead,
                    vertex_layers, edge_layers,
                )
            rows = self.closure_memo.forward(vertex_layers)
            seed_ids = vertex_layers[0]
            pos = np.searchsorted(seed_ids, np.array(computed, dtype=np.int64))
            for v, p in zip(computed, pos):
                row = rows[p]
                cached_rows[v] = row
                staleness[v] = 0.0
                self.reader.refresh(1, np.array([v]), row[None, :], key_us[v])
        t_compute_end = timeline.now(coordinator)

        timeline.record_span(
            coordinator, "batch", batch.dispatch_s, t_compute_end,
            size=len(admitted), mode=mode, computed=len(computed),
            cached=len(distinct) - len(computed),
        )
        if computed:
            timeline.record_span(
                coordinator,
                "compute" if mode == "local" else "fetch",
                t_compute_start, t_compute_end, mode=mode,
                vertices=len(computed),
            )

        # -- replies ---------------------------------------------------
        computed_requests = [r for r in admitted if r.vertex in computed_set]
        per_request_bytes = (
            batch_bytes / len(computed_requests) if computed_requests else 0.0
        )
        reply_serialize_s = REPLY_BYTES / network.bytes_per_s
        reply_start = timeline.now(coordinator)
        for r in admitted:
            timeline.advance(
                coordinator, NET_SEND, reply_serialize_s,
                num_bytes=REPLY_BYTES,
            )
            finish = timeline.now(coordinator) + network.latency_s
            row = cached_rows[r.vertex]
            predictions[r.req_id] = int(np.argmax(row))
            was_computed = r.vertex in computed_set
            record = RequestRecord(
                req_id=r.req_id,
                vertex=r.vertex,
                arrival_s=r.arrival_s,
                dispatch_s=batch.dispatch_s,
                finish_s=finish,
                mode=mode if was_computed else "cached",
                worker=coordinator,
                comm_bytes=per_request_bytes if was_computed else 0.0,
                staleness_s=staleness[r.vertex],
                degraded=coord_degraded or stale_if_error.get(r.vertex, False),
            )
            ledger.add(record)
            insort(inflight, finish)
            timeline.record_span(
                coordinator, "request", r.arrival_s, finish,
                req_id=r.req_id, vertex=r.vertex, mode=record.mode,
            )
        timeline.record_span(
            coordinator, "reply", reply_start, timeline.now(coordinator),
            replies=len(admitted),
        )

    # ------------------------------------------------------------------
    def _charge_local(
        self, timeline: Timeline, coordinator: int,
        vertex_layers, edge_layers,
    ) -> None:
        """DepCache-style: the coordinator recomputes the union closure."""
        L = self.num_layers
        gpu_s = 0.0
        for l in range(1, L + 1):
            gpu_s += self.constants.vertex_cost(l) * len(vertex_layers[L - l])
            gpu_s += self.constants.edge_cost(l) * len(edge_layers[L - l])
        if self.faults is not None:
            gpu_s *= self.faults.gpu_factor(coordinator, timeline.now(coordinator))
        timeline.advance(coordinator, GPU, gpu_s)

    def _charge_remote(
        self,
        timeline: Timeline,
        network,
        injector: Optional[FaultInjector],
        coordinator: int,
        alive: List[int],
        dead: set,
        vertex_layers,
        edge_layers,
    ) -> float:
        """DepComm-style: a distributed forward over the union closure.

        Each layer is one BSP exchange among the alive workers: every
        worker computes its owned share of the layer's compute set
        (dead workers' shares fold into the coordinator) and boundary
        representations cross the wire once per unique (source, dest
        worker) pair.  Returns the total exchanged bytes.
        """
        L = self.num_layers
        m = self.cluster.num_workers
        assignment = self.partitioning.assignment
        dispatch = timeline.now(coordinator)
        for w in alive:
            timeline.advance_at_least_until(w, dispatch)
        total_bytes = 0.0

        def live_owner(workers: np.ndarray) -> np.ndarray:
            if not dead:
                return workers
            out = workers.copy()
            for d in dead:
                out[out == d] = coordinator
            return out

        for l in range(1, L + 1):
            compute = vertex_layers[L - l]
            edges = edge_layers[L - l]
            v_owner = live_owner(assignment[compute])
            e_owner = live_owner(assignment[self.graph.dst[edges]])
            local_compute = (
                self.constants.vertex_cost(l)
                * np.bincount(v_owner, minlength=m).astype(np.float64)
                + self.constants.edge_cost(l)
                * np.bincount(e_owner, minlength=m).astype(np.float64)
            )
            # One representation crosses per unique (src, dest-worker)
            # pair -- the frontier dedup micro-batching buys.
            src = self.graph.src[edges]
            src_owner = live_owner(assignment[src])
            dst_owner = e_owner
            crossing = src_owner != dst_owner
            volumes = np.zeros((m, m))
            if crossing.any():
                pair_keys = src[crossing] * np.int64(m) + dst_owner[crossing]
                unique_keys, first = np.unique(pair_keys, return_index=True)
                payload = self.dims[l - 1] * 4
                np.add.at(
                    volumes,
                    (src_owner[crossing][first], dst_owner[crossing][first]),
                    float(payload),
                )
            stats = run_exchange(
                timeline, network, volumes,
                local_compute=local_compute,
                options=COMM,
                barrier=True,
                bytes_per_message=float(self.dims[l - 1] * 4),
                faults=injector,
                participants=alive,
            )
            total_bytes += stats.total_bytes

        # Final gather: h^L rows of seeds owned elsewhere hop to the
        # coordinator for the reply.
        seeds = vertex_layers[0]
        seed_owner = live_owner(assignment[seeds])
        gather_bytes = int((seed_owner != coordinator).sum()) * self.dims[L] * 4
        if gather_bytes:
            timeline.advance(
                coordinator, NET_RECV, network.wire_time(gather_bytes),
                num_bytes=gather_bytes,
            )
            total_bytes += gather_bytes
        return total_bytes
