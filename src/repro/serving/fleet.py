"""Self-healing replicated serving fleet.

A :class:`ServingFleet` runs ``N`` replicated serving groups -- each a
full :class:`~repro.serving.server.InferenceServer` over the *same*
trained model and partitions, with its own
:class:`~repro.cache.historical.HistoricalEmbeddingCache`,
:class:`~repro.cluster.timeline.Timeline`, and
:class:`~repro.serving.slo.LatencyLedger` -- behind a
:class:`~repro.serving.router.PopularityRouter`.  Because every answer
an :class:`InferenceServer` produces is an exact model forward (cached
rows replay previously exact rows), replication is purely a
routing-and-recovery concern: a fault-free ``N``-replica fleet returns
predictions bit-identical to a single server's, which is the fleet's
foundational invariant (pinned by ``tests/serving/test_fleet.py``).

The stream is served in fixed-size *segments* (``health_every``
requests).  After each segment the fleet inspects only observable
ledger signals -- never the injected schedule -- and heals itself:

- **health-checked failover**: a replica whose segment ends in a run of
  ``CRASH_SHED_RUN`` consecutive shed requests (the signature of a
  serving group whose workers all went dark: admission control sheds
  *everything* once no worker is alive) is declared dead.  Its
  unanswered requests are re-served on the rendezvous-alternate replica
  as seeded duplicates delayed by a p99-derived detection timer, and
  future traffic routes around it.
- **hedged requests**: a replica whose segment-mean latency exceeds
  ``hedge_factor`` times the fleet's baseline p99 is a *suspect*
  (straggling, not dead).  While suspect, every request routed to it is
  duplicated to its rendezvous alternate after the same p99-derived
  timer (plus ``HEDGE_JITTER_S`` of seeded jitter via
  :func:`repro.utils.rng.derive_rng`);
  whichever copy finishes first wins the ledger.  Fault-free runs never
  mark suspects, so hedging cannot perturb a healthy fleet.
- **SLO-driven autoscaling** (optional): an attached
  :class:`~repro.serving.autoscaler.SLOAutoscaler` turns sustained
  p99/shed burn into scale-out (replica spin-up charged through
  :func:`~repro.resilience.elastic.charge_reshape`, hot pins spread) and
  sustained idle into scale-in.

``self_heal=False`` disables every automatic response while keeping the
levers (:meth:`quarantine`, :meth:`scale_out`) public -- the mode the
ops harness uses so the graded :class:`~repro.ops.detectors.
DetectionPipeline` and mitigation own the response instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import Timeline
from repro.comm.scheduler import CommOptions
from repro.core.model import GNNModel
from repro.costmodel.probe import ProbeResult, probe_constants
from repro.graph.graph import Graph
from repro.partition.base import Partitioning
from repro.resilience.elastic import charge_reshape, vertex_state_bytes
from repro.resilience.faults import FaultSchedule
from repro.serving.autoscaler import (
    AutoscalerConfig,
    ScalingEvent,
    SLOAutoscaler,
)
from repro.serving.router import PopularityRouter
from repro.serving.server import InferenceServer, ServingConfig
from repro.serving.slo import LatencyLedger, RequestRecord
from repro.serving.workload import Request
from repro.utils.rng import derive_rng

#: Trailing consecutive sheds that declare a replica dead.
CRASH_SHED_RUN = 3
#: Uniform seeded jitter added to every hedge/failover timer, whose base
#: is the fleet's baseline p99.
HEDGE_JITTER_S = 1e-4


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of one fleet run."""

    replicas: int = 2
    serving: ServingConfig = field(default_factory=ServingConfig)
    seed: int = 0
    #: requests per health-check segment
    health_every: int = 32
    #: popularity pin threshold (see PopularityRouter)
    pin_after: int = 3
    #: suspect threshold: segment mean > factor * baseline p99
    hedge_factor: float = 3.0
    #: segments whose served latencies form the fleet baseline
    baseline_segments: int = 3
    #: automatic failover / hedging / autoscaling on observation
    self_heal: bool = True
    autoscaler: Optional[AutoscalerConfig] = None

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.health_every < 1:
            raise ValueError("health_every must be >= 1")
        if self.hedge_factor <= 1.0:
            raise ValueError("hedge_factor must be > 1")
        if self.baseline_segments < 1:
            raise ValueError("baseline_segments must be >= 1")


class ReplicaGroup:
    """One serving group: a server plus its private continuation state."""

    def __init__(
        self,
        replica_id: int,
        graph: Graph,
        model: GNNModel,
        cluster: ClusterSpec,
        partitioning: Partitioning,
        config: ServingConfig,
        constants: ProbeResult,
        faults: Optional[FaultSchedule] = None,
        record_timeline: bool = True,
    ):
        self.replica_id = int(replica_id)
        self.server = InferenceServer(
            graph, model, cluster, partitioning,
            config=config, constants=constants, faults=faults,
            record_timeline=record_timeline,
        )
        self.timeline = Timeline(cluster.num_workers, record=record_timeline)
        self.ledger = LatencyLedger()
        self.predictions: Dict[int, int] = {}
        self.inflight: List[float] = []
        # Routable from this simulated time on (a scale-out's spin-up).
        self.ready_at_s = 0.0
        self.healthy = True
        self.retired = False

    def serve(self, requests: Sequence[Request]) -> List[RequestRecord]:
        """Serve one batch against this replica's continuation state."""
        start = len(self.ledger.records)
        self.server.serve(
            requests,
            timeline=self.timeline, ledger=self.ledger,
            predictions=self.predictions, inflight=self.inflight,
        )
        return self.ledger.records[start:]

    @property
    def live(self) -> bool:
        """Neither declared dead nor retired by a scale-in."""
        return self.healthy and not self.retired


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    ledger: LatencyLedger  # one final record per request, req_id order
    predictions: Dict[int, int]
    replicas: List[ReplicaGroup]  # every group ever started
    num_segments: int
    hedges_launched: int
    hedges_won: int
    failovers: int
    health_events: List[Dict[str, object]]
    scaling_events: List[ScalingEvent]

    def summary(self) -> Dict[str, object]:
        out = self.ledger.to_dict()
        del out["records"]
        out["num_replicas_started"] = len(self.replicas)
        out["num_replicas_final"] = sum(1 for g in self.replicas if g.live)
        out["num_segments"] = self.num_segments
        out["hedges_launched"] = self.hedges_launched
        out["hedges_won"] = self.hedges_won
        out["failovers"] = self.failovers
        out["health_events"] = list(self.health_events)
        out["scaling_events"] = [e.to_dict() for e in self.scaling_events]
        replica_served: Dict[str, int] = {}
        for r in self.ledger.records:
            if not r.shed and r.replica >= 0:
                key = str(r.replica)
                replica_served[key] = replica_served.get(key, 0) + 1
        out["replica_served"] = replica_served
        return out


class ServingFleet:
    """Replicated serving groups with routing, failover, and scaling."""

    def __init__(
        self,
        graph: Graph,
        model: GNNModel,
        cluster: ClusterSpec,
        partitioning: Partitioning,
        config: Optional[FleetConfig] = None,
        constants: Optional[ProbeResult] = None,
        replica_faults: Optional[Dict[int, FaultSchedule]] = None,
        record_timeline: bool = True,
    ):
        self.graph = graph
        self.model = model
        self.cluster = cluster
        self.partitioning = partitioning
        self.config = config or FleetConfig()
        # One probe shared by every replica: same constants, same plans.
        self.constants = constants or probe_constants(cluster, model)
        self.record_timeline = record_timeline
        self._replica_faults = dict(replica_faults or {})
        self.router = PopularityRouter(
            seed=self.config.seed, pin_after=self.config.pin_after,
        )
        self.groups: List[ReplicaGroup] = [
            self._spawn_group(i) for i in range(self.config.replicas)
        ]
        self.autoscaler = (
            SLOAutoscaler(self.config.autoscaler)
            if self.config.autoscaler is not None else None
        )
        self.suspects: set = set()
        self.health_events: List[Dict[str, object]] = []
        self.scaling_events: List[ScalingEvent] = []
        self.hedges_launched = 0
        self.hedges_won = 0
        self.failovers = 0
        self._segments = 0
        self._baseline_latencies: List[float] = []
        self._final: Dict[int, RequestRecord] = {}
        self.predictions: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _spawn_group(self, replica_id: int):
        return ReplicaGroup(
            replica_id, self.graph, self.model, self.cluster,
            self.partitioning, self.config.serving, self.constants,
            faults=self._replica_faults.get(replica_id),
            record_timeline=self.record_timeline,
        )

    def group(self, replica_id: int) -> ReplicaGroup:
        return self.groups[replica_id]

    def active_replicas(self, at_s: float) -> List[int]:
        """Replicas eligible for routing at simulated time ``at_s``."""
        return [
            g.replica_id for g in self._live() if g.ready_at_s <= at_s
        ]

    def _live(self) -> List[ReplicaGroup]:
        return [g for g in self.groups if g.live]

    def final_records(self) -> List[RequestRecord]:
        """One winning record per request, in req_id order."""
        return [self._final[k] for k in sorted(self._final)]

    def fleet_clock_s(self) -> float:
        """The latest makespan across every live replica's timeline."""
        return max((g.timeline.makespan for g in self._live()), default=0.0)

    # -- baseline / timers ---------------------------------------------
    def _baseline_p99(self) -> Optional[float]:
        if self._segments < self.config.baseline_segments:
            return None
        if not self._baseline_latencies:
            return None
        return float(np.percentile(np.array(self._baseline_latencies), 99))

    def _timer_s(self, req_id: int, stream: str) -> float:
        """P99-derived hedge/failover delay with seeded jitter."""
        base = self._baseline_p99() or 0.0
        jitter = float(
            derive_rng(self.config.seed, stream, int(req_id)).uniform(
                0.0, HEDGE_JITTER_S
            )
        )
        return base + jitter

    # -- serving --------------------------------------------------------
    def serve(self, requests: Sequence[Request]) -> FleetResult:
        """Serve a stream (or one more segment batch of it)."""
        width = self.config.health_every
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
        for lo in range(0, len(ordered), width):
            self._serve_segment(ordered[lo:lo + width])
        return self.result()

    def result(self) -> FleetResult:
        ledger = LatencyLedger()
        for record in self.final_records():
            ledger.add(record)
        return FleetResult(
            ledger=ledger,
            predictions=dict(self.predictions),
            replicas=list(self.groups),
            num_segments=self._segments,
            hedges_launched=self.hedges_launched,
            hedges_won=self.hedges_won,
            failovers=self.failovers,
            health_events=list(self.health_events),
            scaling_events=list(self.scaling_events),
        )

    # ------------------------------------------------------------------
    def _serve_segment(self, segment: List[Request]) -> None:
        if not segment:
            return
        cfg = self.config
        seg_start = segment[0].arrival_s
        healthy = self.active_replicas(seg_start)
        winners: Dict[int, RequestRecord] = {}

        if not healthy:
            # Total outage: every request is answered with a shed.
            for r in segment:
                winners[r.req_id] = RequestRecord(
                    req_id=r.req_id, vertex=r.vertex, arrival_s=r.arrival_s,
                    dispatch_s=r.arrival_s, finish_s=None, mode="shed",
                    worker=-1, shed=True,
                )
            self._finish_segment(segment, winners)
            return

        assignment = self.router.route_segment(segment, healthy)
        arrival_of = {r.req_id: r.arrival_s for r in segment}

        # 1. Primary serve, per replica in id order (deterministic).
        primary: Dict[int, List[RequestRecord]] = {}
        for replica_id in sorted(assignment):
            records = self.group(replica_id).serve(assignment[replica_id])
            primary[replica_id] = records
            for r in records:
                winners[r.req_id] = replace(r, replica=replica_id)
            self.predictions.update(self.group(replica_id).predictions)

        # 2. Health check + failover of unanswered requests.  With
        # self-healing off the fleet does not even declare deaths: the
        # ops harness grades an external pipeline on exactly that call.
        if cfg.self_heal:
            for replica_id in sorted(assignment):
                if self._replica_died(replica_id, primary[replica_id]):
                    self._declare_dead(replica_id, seg_start)
                    # A crash inside a batching window that straddles
                    # the previous segment boundary leaves sheds already
                    # finalized there; failover covers every unanswered
                    # request the dead replica ever absorbed.
                    stale = [
                        rec for rec in self._final.values()
                        if rec.shed and rec.replica == replica_id
                    ]
                    self._failover(
                        replica_id, assignment[replica_id],
                        primary[replica_id], winners, arrival_of,
                        stale=stale,
                    )

        # 3. Hedged duplicates for suspect (straggling) replicas.
        if cfg.self_heal and self.suspects:
            self._hedge(assignment, winners, arrival_of)

        self._finish_segment(segment, winners)

    def _finish_segment(
        self, segment: List[Request], winners: Dict[int, RequestRecord]
    ) -> None:
        cfg = self.config
        self._final.update(winners)
        self._segments += 1

        served = [
            rec.latency_s for rec in winners.values()
            if rec.latency_s is not None
        ]
        shed = sum(1 for rec in winners.values() if rec.shed)
        if self._segments <= cfg.baseline_segments:
            self._baseline_latencies.extend(served)

        if not cfg.self_heal:
            return

        # Suspect bookkeeping: straggling replicas get hedged next
        # segment; recovered replicas stop being hedged.
        baseline = self._baseline_p99()
        if baseline is not None and baseline > 0:
            by_replica: Dict[int, List[float]] = {}
            for rec in winners.values():
                if rec.latency_s is not None and rec.replica >= 0:
                    by_replica.setdefault(rec.replica, []).append(
                        rec.latency_s
                    )
            for replica_id, lats in sorted(by_replica.items()):
                mean = float(np.mean(lats))
                if not self.group(replica_id).live:
                    self.suspects.discard(replica_id)
                elif mean > cfg.hedge_factor * baseline:
                    self.suspects.add(replica_id)
                else:
                    self.suspects.discard(replica_id)

        if self.autoscaler is not None:
            p99 = (
                float(np.percentile(np.array(served), 99)) if served else 0.0
            )
            offered = len(winners)
            at_s = max(r.arrival_s for r in segment)
            decision = self.autoscaler.observe(
                p99, shed / offered if offered else 0.0,
                len(self.active_replicas(at_s)), at_s,
            )
            if decision == "scale-out":
                self.scale_out(at_s, reason="slo-burn")
            elif decision == "scale-in":
                self.scale_in(at_s, reason="idle")

    # -- health / failover ----------------------------------------------
    def _replica_died(
        self, replica_id: int, records: List[RequestRecord]
    ) -> bool:
        """Crash signature: the segment *ends* in a run of sheds.

        Overload shedding interleaves sheds with serves as the backlog
        drains; a serving group whose workers all went dark sheds every
        request from the crash onward, so a long trailing all-shed run
        is the observable crash signal.
        """
        if not self.group(replica_id).live:
            return False
        trailing = 0
        for r in reversed(records):
            if not r.shed:
                break
            trailing += 1
        return trailing >= CRASH_SHED_RUN

    def _declare_dead(self, replica_id: int, at_s: float) -> None:
        group = self.group(replica_id)
        group.healthy = False
        self.suspects.discard(replica_id)
        self.router.drop_replica(replica_id)
        self.health_events.append({
            "event": "replica-dead",
            "replica": replica_id,
            "at_s": float(at_s),
            "segment": self._segments,
        })

    def _failover(
        self,
        dead_replica: int,
        routed: List[Request],
        records: List[RequestRecord],
        winners: Dict[int, RequestRecord],
        arrival_of: Dict[int, float],
        stale: Sequence[RequestRecord] = (),
    ) -> None:
        """Re-serve the dead replica's unanswered requests elsewhere.

        Duplicates arrive on the alternate replica a p99-derived timer
        after the original request -- the failure-detection delay an
        operator would pay -- and keep the *original* ``arrival_s`` in
        the ledger so the delay shows up as latency, not as amnesia.
        ``stale`` carries sheds the replica produced in earlier segments
        (a crash landing in a batch window that straddled the boundary).
        """
        unanswered = {r.req_id for r in records if r.shed}
        pending = [r for r in routed if r.req_id in unanswered]
        for rec in sorted(stale, key=lambda r: r.req_id):
            arrival_of.setdefault(rec.req_id, rec.arrival_s)
            pending.append(Request(rec.req_id, rec.vertex, rec.arrival_s))
        if not pending:
            return
        survivors = [g.replica_id for g in self._live()]
        if not survivors:
            return  # nothing to fail over to; sheds stand
        self.failovers += self._serve_duplicates(
            "failover",
            [(self.router.rendezvous(r.vertex, survivors), r) for r in pending],
            winners, arrival_of,
            wins=lambda rec, current: True,
            failover=True, degraded=True,
        )

    def _serve_duplicates(
        self, stream: str, duplicates, winners, arrival_of, wins, **marks
    ) -> int:
        """Serve delayed copies on their target replicas; count the wins.

        ``duplicates`` is ``(target replica, request)`` pairs.  Each copy
        arrives a ``stream``-seeded :meth:`_timer_s` after its original;
        targets serve in replica-id order, each its copies by arrival.
        An answered copy for which ``wins(record, current winner)`` holds
        takes the ledger slot, keeping the *original* arrival and
        carrying ``marks`` (``hedged`` / ``failover`` / ``degraded``).
        """
        per_target: Dict[int, List[Request]] = {}
        for target, req in duplicates:
            delay = self._timer_s(req.req_id, stream)
            per_target.setdefault(target, []).append(
                Request(req.req_id, req.vertex, req.arrival_s + delay)
            )
        won = 0
        for target in sorted(per_target):
            group = self.group(target)
            served = group.serve(
                sorted(per_target[target], key=lambda r: r.arrival_s)
            )
            self.predictions.update(group.predictions)
            for rec in served:
                if rec.shed or rec.finish_s is None:
                    continue
                if wins(rec, winners.get(rec.req_id)):
                    winners[rec.req_id] = replace(
                        rec, arrival_s=arrival_of[rec.req_id],
                        replica=target, **marks,
                    )
                    won += 1
        return won

    # -- hedging ---------------------------------------------------------
    def _hedge(
        self,
        assignment: Dict[int, List[Request]],
        winners: Dict[int, RequestRecord],
        arrival_of: Dict[int, float],
    ) -> None:
        healthy = [g.replica_id for g in self._live()]
        if len(healthy) < 2:
            return
        hedges = []
        for replica_id in sorted(assignment):
            if replica_id not in self.suspects:
                continue
            for req in assignment[replica_id]:
                alt = self.router.alternate(req.vertex, replica_id, healthy)
                if alt is not None:
                    hedges.append((alt, req))
        self.hedges_launched += len(hedges)
        self.hedges_won += self._serve_duplicates(
            "hedge", hedges, winners, arrival_of,
            wins=lambda rec, current: (
                current is None or current.shed
                or current.finish_s is None
                or rec.finish_s < current.finish_s
            ),
            hedged=True,
        )

    # -- scaling ---------------------------------------------------------
    def quarantine(self, replica_id: int) -> None:
        """Operator lever: stop routing to a replica (ops mitigation)."""
        self._declare_dead(replica_id, self.fleet_clock_s())
        self.health_events[-1]["event"] = "replica-quarantined"

    def _transition(
        self, action: str, group: ReplicaGroup, at_s: float,
        handover: float, reason: str,
    ) -> ScalingEvent:
        """Charge ``group``'s spin-up / teardown and record the event.

        Every worker of the (new or retiring) replica streams its
        partition's vertex state across the wire, a ring in which worker
        ``w`` receives its shard from the donor's ``(w + 1) % m`` peer.
        """
        m = group.timeline.num_workers
        per_vertex = vertex_state_bytes(self.graph)
        assignment = self.partitioning.assignment
        volumes = np.zeros((m, m))
        for w in range(m):
            volumes[(w + 1) % m, w] = float(per_vertex[assignment == w].sum())
        transition_s, migrated = charge_reshape(
            group.timeline, self.cluster.network, volumes, handover, action,
            options=CommOptions.all(),
            bytes_per_message=self.graph.feature_dim * 4,
        )
        event = ScalingEvent(
            action=action, at_s=float(at_s), replica=group.replica_id,
            reason=reason, transition_s=transition_s,
            migrated_bytes=migrated,
        )
        self.scaling_events.append(event)
        return event

    def scale_out(self, at_s: float, reason: str = "slo-burn") -> ScalingEvent:
        """Start a new replica; spin-up charged through ``run_exchange``."""
        group = self._spawn_group(len(self.groups))
        event = self._transition(
            "scale-out", group, at_s,
            max(float(at_s), self.fleet_clock_s()), reason,
        )
        group.ready_at_s = group.timeline.makespan
        self.groups.append(group)
        # Spread the hot head over the grown fleet: the hotspot that
        # forced the scale-out is a few pinned vertices by definition.
        self.router.enable_spread()
        return event

    def scale_in(self, at_s: float, reason: str = "idle"):
        """Retire the youngest active replica; teardown is charged too."""
        candidates = [g for g in self._live() if g.replica_id > 0]
        if not candidates:
            return None
        group = max(candidates, key=lambda g: g.replica_id)
        event = self._transition(
            "scale-in", group, at_s,
            max(float(at_s), group.timeline.makespan), reason,
        )
        group.retired = True
        self.suspects.discard(group.replica_id)
        self.router.drop_replica(group.replica_id)
        return event


__all__ = ["FleetConfig", "FleetResult", "ReplicaGroup", "ServingFleet"]
