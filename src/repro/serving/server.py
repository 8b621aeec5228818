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
   row per request to the ledger.

Numerically every answer is exact: computed answers run the real model
forward over the union closure, and cached answers replay previously
computed rows bit-for-bit (embeddings are static after training), so
batching and caching change *when* and *where* work happens -- never
the predictions.  On the host, ``serve()`` sees its whole
request stream before the first batch, so it prices every requested
vertex's closure up front (:meth:`RequestPlanner.profiles`) and has a
:class:`~repro.execution.executor.ClosureMemo` compute every row those
closures need once: the model is frozen, so a vertex's answer is its
memoised top-layer row and that row's argmax, the same bytes whatever
batch serves it, while the modeled clock still charges the whole
closure.  Everything else a group computes without the clock is also
done up front: each requested vertex's mode as a group's only computed
vertex, whose local GPU seconds are its profile's local price, so such
a group -- most of them, on a Zipf stream -- plans nothing.  A larger
group merges its compute layers only to charge them: a local charge
reads their sizes and in-degree sums, a remote one selects each
layer's in-edges from the CSC.  The clock is then charged per group:
one cache probe and one store per batch, one bulk advance for a
group's replies, and one ledger append per ``serve()`` call, each
bit-equal to the per-request loop it replaced (docs/serving.md,
"Request lifecycle").

When a :class:`~repro.resilience.faults.FaultSchedule` marks workers
crashed, serving degrades instead of failing: a dead coordinator is
replaced by the next alive worker in the ring, the dead worker's
compute share folds into the coordinator, exchanges run with
``participants`` restricted to live workers, and expired cache entries
are served stale ("stale-if-error") when the owner is dead.  All such
answers carry ``degraded=True`` in the ledger.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

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
from repro.serving.planner import ClosureProfile, RequestPlanner, in_degrees
from repro.serving.slo import LatencyLedger, SLOConfig
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
    recomputes; ``inf`` never expires an entry).  ``mode`` forces
    local/remote recompute or lets the planner pick per batch.  A value
    that would change the run without failing it is rejected here: a
    NaN window or bound (NaN compares false to every time), an infinite
    window (a partial batch would dispatch at infinity), a negative
    window or a batch cap below one.
    """

    batch_window_s: float = 0.002
    max_batch: int = 32
    tau_s: float = 0.0
    mode: str = "auto"
    slo: SLOConfig = field(default_factory=SLOConfig)

    def __post_init__(self):
        if self.mode not in _SERVE_MODES:
            raise ValueError(f"mode must be one of {_SERVE_MODES}, got {self.mode!r}")
        if not 0 <= self.batch_window_s < math.inf:
            raise ValueError(
                f"batch_window_s must be finite and >= 0, got {self.batch_window_s!r}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch!r}")
        if not self.tau_s >= 0:
            raise ValueError(f"tau_s must be >= 0, got {self.tau_s!r}")


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


class _OneVertex(NamedTuple):
    """A vertex's answer, and its mode as a group's only computed vertex
    (whose local GPU seconds, before any fault slow-down, are its
    profile's ``local_cost_s``: ``_local_gpu_s``'s sums in its order)."""

    mode: str
    row: np.ndarray
    prediction: int
    profile: ClosureProfile


@dataclass
class _Stream:
    """One ``serve()`` call's state, shared by its batches.

    ``replies`` holds the call's ledger rows, shed ones included, in
    ledger order (tuples of :class:`RequestRecord`'s leading fields).
    """

    timeline: Timeline
    injector: Optional[FaultInjector]
    predictions: Dict[int, int]
    inflight: List[float]
    owners: Dict[int, int]
    answers: Dict[int, _OneVertex]
    replies: List[tuple] = field(default_factory=list)


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
    def _check_vertices(self, requests: Sequence[Request]) -> None:
        """Reject a request for a vertex the graph does not have."""
        n = self.graph.num_vertices
        vertices = np.fromiter(
            (r.vertex for r in requests), dtype=np.int64, count=len(requests)
        )
        bad = np.flatnonzero((vertices < 0) | (vertices >= n))
        if len(bad):
            request = requests[int(bad[0])]
            raise ValueError(
                f"request {request.req_id}: vertex {request.vertex} is not a "
                f"vertex id (the graph has {n} vertices)"
            )

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
        self._check_vertices(requests)
        cfg = self.config
        m = self.cluster.num_workers
        if timeline is None:
            timeline = Timeline(m, record=self.record_timeline)
        batcher = MicroBatcher(cfg.batch_window_s, cfg.max_batch)
        batches = batcher.batches(requests)

        # The whole stream is known before the first batch runs, so every
        # requested vertex's closure and price, every row the memo needs
        # for those closures, and each vertex's answer are computed here
        # in a few vectorised calls; a batch then only charges the clock
        # and looks answers up.
        profiles = self.planner.profiles(sorted({r.vertex for r in requests}))
        self.closure_memo.fill([p.vertex_layers for p in profiles])
        answers = self._one_vertex_answers(profiles)
        if ledger is None:
            ledger = LatencyLedger()
        stream = _Stream(
            timeline=timeline,
            injector=FaultInjector(self.faults) if self.faults else None,
            predictions={} if predictions is None else predictions,
            inflight=[] if inflight is None else inflight,
            owners={p.vertex: p.owner for p in profiles},
            answers=answers,
        )
        for batch in batches:
            self._serve_batch(batch, stream)
        ledger.extend(stream.replies)
        return ServingResult(
            ledger=ledger,
            predictions=stream.predictions,
            timeline=timeline,
            num_batches=len(batches),
            cache=self.cache,
        )

    def _one_vertex_answers(self, profiles) -> Dict[int, _OneVertex]:
        """Each profiled vertex's answer: its memoised top-layer row and
        that row's argmax, whichever group computes it, and the mode
        ``plan_batch([v])`` gives a group whose only computed vertex it is.
        """
        seeds = np.array([p.vertex for p in profiles], dtype=np.int64)
        rows = self.closure_memo.rows(seeds)
        modes = self.planner.modes(profiles)
        predictions = np.argmax(rows, axis=1).tolist()
        return {
            v: _OneVertex(mode, row, prediction, profile)
            for v, mode, row, prediction, profile in zip(
                seeds.tolist(), modes, rows, predictions, profiles
            )
        }

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

    def _serve_batch(self, batch: MicroBatch, stream: _Stream) -> None:
        cfg = self.config
        m = self.cluster.num_workers
        dead = self._dead_workers(batch.dispatch_s)
        alive = [w for w in range(m) if w not in dead]
        inflight = stream.inflight

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
                stream.replies.append((
                    r.req_id, r.vertex, r.arrival_s, batch.dispatch_s,
                    None, "shed", -1, 0.0, 0.0, True, False,
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
        key_us: Dict[int, int] = {}
        for r in admitted:
            owner = stream.owners[r.vertex]
            coordinator = self._fallback(owner, dead, m) if dead else owner
            groups.setdefault(coordinator, []).append(r)
            if r.vertex not in key_us:
                key_us[r.vertex] = int(round(r.arrival_s * 1e6))

        # -- staleness-bounded cache probe, keyed per vertex to the ----
        # -- arrival of the batch's oldest request for that vertex -----
        # A vertex belongs to one group, so no group's store changes what
        # another group of the batch reads: one probe before the groups
        # and one store after them read and write what a probe and a
        # store per group would.  Serving an expired entry stale beats
        # failing the request outright when the owner is down
        # ("stale-if-error").
        rows, stamps, served_expired = self.reader.probe(
            1, list(key_us), list(key_us.values()),
            allow_expired=[stream.owners[v] in dead for v in key_us] if dead else None,
        )
        hits = {
            v: (int(row.argmax()), (key_us[v] - stamp) / 1e6, expired)
            for v, row, stamp, expired in zip(key_us, rows, stamps, served_expired)
            if row is not None
        }
        refreshed: List[tuple] = []
        finishes: List[float] = []
        for coordinator, group in groups.items():
            finishes += self._serve_group(
                batch, group, coordinator, dead, alive, stream, hits, refreshed
            )
        if refreshed:
            ids, computed_rows = zip(*refreshed)
            self.reader.refresh(1, ids, computed_rows, [key_us[v] for v in ids])
        # Admission only reads ``inflight`` before a batch's groups run,
        # so the batch's finish times join it once, in sorted place.
        cut = bisect_right(inflight, min(finishes))
        inflight[cut:] = sorted(inflight[cut:] + finishes)

    def _serve_group(
        self,
        batch: MicroBatch,
        admitted: List[Request],
        coordinator: int,
        dead: set,
        alive: List[int],
        stream: _Stream,
        hits: Dict[int, tuple],
        refreshed: List[tuple],
    ) -> List[float]:
        """Serve one coordinator's share of a batch; returns the finish
        times of its replies.

        ``hits`` holds the batch's cache answers, ``(prediction,
        staleness_s, served_expired)`` per vertex; each vertex this group
        computes joins ``refreshed`` as ``(vertex, row)``, for the
        batch's store.
        """
        network = self.cluster.network
        timeline = stream.timeline
        coord_degraded = bool(dead) and any(
            stream.owners[r.vertex] != coordinator for r in admitted
        )

        timeline.advance_at_least_until(coordinator, batch.dispatch_s)

        # -- ingress: the clients' requests reach the coordinator ------
        ingress_bytes = REQUEST_BYTES * len(admitted)
        timeline.advance(
            coordinator, NET_RECV, network.wire_time(ingress_bytes),
            num_bytes=ingress_bytes,
        )

        # Each distinct vertex's cache answer (None: to compute), in
        # order of first request.
        answer: Dict[int, Optional[tuple]] = {}
        num_cache_hits = 0
        for r in admitted:
            v = r.vertex
            if v not in answer:
                answer[v] = hits.get(v)
            if answer[v] is not None:
                num_cache_hits += 1
        computed = [v for v, hit in answer.items() if hit is None]
        if num_cache_hits:
            timeline.advance(coordinator, CPU, CACHE_LOOKUP_S * num_cache_hits)

        # -- recompute the rest ----------------------------------------
        batch_bytes = 0.0
        mode = "cached"
        t_compute_start = timeline.now(coordinator)
        if computed:
            one = stream.answers[computed[0]] if len(computed) == 1 else None
            if one is None:
                mode, vertex_layers = self.planner.plan_batch(computed)
            else:
                mode, vertex_layers = one.mode, one.profile.vertex_layers
            if mode == "local":
                gpu_s = (
                    self._local_gpu_s(vertex_layers)
                    if one is None
                    else one.profile.local_cost_s
                )
                self._charge_local(timeline, coordinator, gpu_s)
            else:
                batch_bytes = self._charge_remote(
                    timeline, network, stream.injector, coordinator, alive, dead,
                    vertex_layers,
                )
            refreshed += ((v, stream.answers[v].row) for v in computed)
        t_compute_end = timeline.now(coordinator)

        # -- replies: one bulk advance, then one pass for the columns --
        # Per distinct vertex: its prediction, and its ledger row's
        # fields from ``mode`` on.
        num_computed = len(admitted) - num_cache_hits
        per_request_bytes = batch_bytes / num_computed if num_computed else 0.0
        reply_of: Dict[int, tuple] = {}
        for v, hit in answer.items():
            if hit is not None:
                p, staleness_s, expired = hit
                reply_of[v] = (p, (
                    "cached", coordinator, 0.0, staleness_s, False,
                    coord_degraded or expired,
                ))
        for v in computed:
            reply_of[v] = (stream.answers[v].prediction, (
                mode, coordinator, per_request_bytes, 0.0, False, coord_degraded,
            ))
        ends = timeline.advance_repeated(
            coordinator, NET_SEND, REPLY_BYTES / network.bytes_per_s,
            len(admitted), num_bytes=REPLY_BYTES,
        )
        latency_s = network.latency_s
        finishes = [end + latency_s for end in ends]
        predictions, replies = stream.predictions, stream.replies
        for r, finish in zip(admitted, finishes):
            p, tail = reply_of[r.vertex]
            predictions[r.req_id] = p
            replies.append((r.req_id, r.vertex, r.arrival_s, batch.dispatch_s, finish) + tail)

        if timeline.record:
            spans = [(
                "batch", batch.dispatch_s, t_compute_end,
                {"size": len(admitted), "mode": mode, "computed": len(computed),
                 "cached": len(answer) - len(computed)},
            )]
            if computed:
                spans.append((
                    "compute" if mode == "local" else "fetch",
                    t_compute_start, t_compute_end,
                    {"mode": mode, "vertices": len(computed)},
                ))
            spans += [
                ("request", row[2], row[4], {"req_id": row[0], "vertex": row[1], "mode": row[5]})
                for row in replies[-len(admitted):]
            ]
            spans.append((
                "reply", t_compute_end, timeline.now(coordinator),
                {"replies": len(admitted)},
            ))
            timeline.record_spans(coordinator, spans)
        return finishes

    # ------------------------------------------------------------------
    def _local_gpu_s(self, vertex_layers) -> float:
        """GPU seconds for the coordinator to recompute a closure with
        these compute layers: per layer, its vertices and their in-edges
        (the planner's local price, summed in the same order)."""
        L = self.num_layers
        gpu_s = 0.0
        for l in range(1, L + 1):
            compute = vertex_layers[L - l]
            gpu_s += self.constants.vertex_cost(l) * len(compute)
            gpu_s += self.constants.edge_cost(l) * int(in_degrees(self.graph, compute).sum())
        return gpu_s

    def _charge_local(
        self, timeline: Timeline, coordinator: int, gpu_s: float
    ) -> None:
        """DepCache-style: the coordinator recomputes the union closure."""
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
    ) -> float:
        """DepComm-style: a distributed forward over the union closure.

        Each layer is one BSP exchange among the alive workers: every
        worker computes its owned share of the layer's compute set
        (dead workers' shares fold into the coordinator) and boundary
        representations cross the wire once per unique (source, dest
        worker) pair.  A layer's edges are its compute set's CSC runs;
        owner counts and unique pairs do not depend on their order.
        Returns the total exchanged bytes.
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
            counts, src, _ = self.graph.csc.select(compute)
            v_owner = live_owner(assignment[compute])
            e_owner = np.repeat(v_owner, counts)
            local_compute = (
                self.constants.vertex_cost(l)
                * np.bincount(v_owner, minlength=m).astype(np.float64)
                + self.constants.edge_cost(l)
                * np.bincount(e_owner, minlength=m).astype(np.float64)
            )
            # One representation crosses per unique (src, dest-worker)
            # pair -- the frontier dedup micro-batching buys.
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
