"""Elastic membership: survivors absorb a dead worker's partition.

PR 1's rollback-restart recovery assumes a replacement node can always
be provisioned.  When it cannot (spot reclamation, hardware loss --
``WorkerCrashFault.permanent``) or when provisioning would take longer
than the work is worth, the alternative is to *shrink*: the surviving
workers absorb the dead worker's vertices and training continues on the
(N-1)-worker cluster.

The shrink is deterministic end to end so recovered runs stay
reproducible:

1. :func:`repro.partition.absorb_partition` deals the dead worker's
   vertices to the least-loaded survivors (a pure function of the old
   partitioning and the dead worker id) and renumbers survivors.
2. :meth:`repro.cluster.ClusterSpec.without_worker` reshapes the
   cluster spec, remapping any fault schedule to the new numbering.
3. :meth:`repro.engines.base.BaseEngine.respawn` builds a fresh engine
   of the same class on the reshaped cluster, **sharing the model
   object** -- an optimizer bound to ``model.parameters()`` survives
   the swap, and since checkpoints restore into that same model, the
   post-shrink trajectory is bit-identical to training the reshaped
   cluster from the same checkpoint on healthy hardware.
4. Migration traffic (features + adjacency of moved vertices, plus the
   *new* plan's DepCache closure delta -- the churn side of the hybrid
   trade-off: DepCache pays more to shrink) is charged through
   :func:`repro.comm.scheduler.run_exchange` on the new timeline, which
   first advances to the old cluster's makespan so no modeled time is
   lost in the handover.
5. Dependency state rebuilds via the new engine's ``plan()`` (DepCache
   closures re-replicated, DepComm mirrors re-registered); historical
   caches start cold, so every migrated vertex's cached entry is
   implicitly invalidated and the next epoch is a refresh epoch.

:func:`rejoin_engine` is the inverse grow path: once a replacement for
the departed worker finally arrives, the moved vertices (and the
worker's closure state) stream back and training continues on the
original shape -- no rollback needed, the shared model is current.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import CPU
from repro.comm.scheduler import run_exchange
from repro.partition.base import Partitioning
from repro.partition.vertex_cut import ReassignmentPlan, absorb_partition
from repro.resilience.engine_recovery import recover_from_crash
from repro.resilience.faults import (
    RecoveryExhaustedError,
    WorkerCrashError,
    WorkerCrashFault,
)
from repro.resilience.recovery import RecoveryEvent, RecoveryPolicy

#: Bytes per replicated adjacency entry (src, dst, weight) -- matches
#: :func:`repro.resilience.engine_recovery.reprovision_bytes`.
ADJ_BYTES_PER_EDGE = 12


@dataclass(frozen=True)
class MigrationReport:
    """What one elastic transition (shrink or rejoin) cost.

    ``seconds`` is modeled wall time from the handover point through
    the migration exchange and re-planning barrier; ``migrated_bytes``
    the wire traffic (vertex state + closure delta); ``closure_bytes``
    the closure-delta share of it (zero for pure DepComm -- the churn
    asymmetry the paper's trade-off predicts).
    """

    direction: str  # "shrink" | "rejoin"
    seconds: float
    migrated_bytes: int
    closure_bytes: int
    preprocessing_s: float
    num_workers: int


@dataclass
class ShrinkRecord:
    """Everything needed to grow back to the pre-shrink cluster."""

    plan: ReassignmentPlan
    old_cluster: ClusterSpec
    old_partitioning: Partitioning
    crash: WorkerCrashFault  # in the old numbering


def _crash_fault(crash) -> WorkerCrashFault:
    fault = crash.fault if isinstance(crash, WorkerCrashError) else crash
    if not isinstance(fault, WorkerCrashFault):
        raise TypeError(f"expected a crash fault, got {fault!r}")
    return fault


def vertex_state_bytes(graph) -> np.ndarray:
    """Bytes of each vertex's movable state: its feature row plus its
    in-edges' adjacency (``feature_dim * 4 + in_deg * ADJ_BYTES_PER_EDGE``).

    Every reshape prices moved vertices with this one formula: elastic
    shrink/rejoin here and a serving replica's spin-up/teardown in
    :mod:`repro.serving.fleet`.
    """
    in_deg = np.bincount(graph.dst, minlength=graph.num_vertices)
    return graph.feature_dim * 4 + in_deg * ADJ_BYTES_PER_EDGE


def _vertex_state_volumes(
    graph, moved: np.ndarray, owners: np.ndarray, receivers: np.ndarray, m: int
) -> np.ndarray:
    """Byte matrix for streaming moved vertices' features + in-edges.

    ``owners[i]`` holds vertex ``moved[i]``'s durable state (for a
    shrink that is a deterministic storage shard; for a rejoin, the
    absorbing survivor); a vertex whose owner is its receiver loads
    locally and sends nothing.
    """
    volumes = np.zeros((m, m))
    if len(moved) == 0:
        return volumes
    per_vertex = vertex_state_bytes(graph)[moved]
    for s, r, b in zip(owners, receivers, per_vertex):
        if s != r:
            volumes[int(s), int(r)] += float(b)
    return volumes


def _closure_delta_volumes(
    new_engine, new_plan, old_cached, old_id_of
) -> Tuple[np.ndarray, int]:
    """Bytes each worker must fetch for newly cached closure vertices.

    Compares the reshaped plan's per-layer DepCache sets against the
    pre-shrink plan's (vertex ids are global, so the sets compare
    directly); every newly cached vertex streams its features from its
    new owner.  Pure DepComm has empty cached sets on both sides and
    pays nothing here.
    """
    m = new_engine.cluster.num_workers
    feat_bytes = new_engine.graph.feature_dim * 4
    assignment = new_engine.partitioning.assignment
    volumes = np.zeros((m, m))
    total = 0
    for l in range(new_engine.num_layers):
        for w in range(m):
            old_w = old_id_of(w)
            prior = (
                old_cached[l][old_w]
                if old_w is not None
                else np.empty(0, dtype=np.int64)
            )
            delta = np.setdiff1d(new_plan.cached_deps[l][w], prior)
            if len(delta) == 0:
                continue
            for owner in np.unique(assignment[delta]):
                count = int((assignment[delta] == owner).sum())
                if int(owner) == w:
                    continue  # now-local closure state loads from disk
                volumes[int(owner), w] += count * feat_bytes
                total += count * feat_bytes
    return volumes, total


def charge_reshape(
    timeline, network, volumes: np.ndarray, handover_s: float,
    direction: str, options, bytes_per_message: float,
    faults=None, prep_s: float = 0.0,
) -> Tuple[float, float]:
    """Charge one cluster reshape's state migration on ``timeline``.

    Advances every worker to the handover point, barriers, streams
    ``volumes`` through :func:`run_exchange`, charges ``prep_s`` of
    re-planning CPU per worker, and barriers again.  The whole
    transition is recorded as a ``migration`` span tagged with
    ``direction``, so chrome traces show elastic shrink/rejoin and fleet
    scale-out/in alike.  Returns ``(transition_seconds, migrated_bytes)``.
    """
    m = timeline.num_workers
    for w in range(m):
        timeline.advance_at_least_until(w, handover_s)
    t0 = timeline.barrier()
    run_exchange(
        timeline, network, volumes,
        options=options,
        barrier=True,
        bytes_per_message=bytes_per_message,
        faults=faults,
    )
    if prep_s > 0:
        for w in range(m):
            timeline.advance(w, CPU, prep_s)
    t1 = timeline.barrier()
    migrated = float(volumes.sum())
    timeline.record_span(
        0, "migration", t0, t1,
        direction=direction,
        migrated_bytes=int(migrated),
        num_workers=m,
    )
    return t1 - t0, migrated


def _charge_transition(
    new_engine, new_plan, volumes: np.ndarray, handover_t: float,
    direction: str,
) -> Tuple[float, int, float]:
    """:func:`charge_reshape` on the reshaped engine's timeline, with its
    re-planning preprocessing; ``(seconds, migrated_bytes, prep_s)``."""
    prep_s = new_plan.preprocessing_s if new_plan is not None else 0.0
    seconds, migrated = charge_reshape(
        new_engine.timeline, new_engine.cluster.network, volumes,
        handover_t, direction,
        options=new_engine.comm,
        bytes_per_message=new_engine.graph.feature_dim * 4,
        faults=new_engine.faults, prep_s=prep_s,
    )
    return seconds, int(migrated), prep_s


def shrink_engine(engine, crash) -> Tuple[object, ShrinkRecord, MigrationReport]:
    """Absorb ``crash``'s worker into the survivors and hand over.

    Returns ``(new_engine, record, report)``: a fresh engine of the
    same class on the (N-1)-worker cluster with its timeline advanced
    past the migration, a :class:`ShrinkRecord` for a later
    :func:`rejoin_engine`, and the migration's cost accounting.  The
    caller (:class:`repro.training.resilient.ResilientTrainer`) is
    responsible for restoring model/optimizer state from the last
    checkpoint and re-aligning the epoch counter.
    """
    fault = _crash_fault(crash)
    old_plan = engine.plan()
    plan, reshaped = absorb_partition(engine.partitioning, fault.worker)
    new_cluster = engine.cluster.without_worker(fault.worker)
    new_engine = engine.respawn(new_cluster, reshaped)
    new_engine.rollback_to_epoch(engine._epoch)
    handover_t = engine.timeline.makespan

    new_m = new_cluster.num_workers
    new_plan = new_engine.plan()
    # Moved vertices stream from a deterministic durable-storage shard
    # (HDFS-style: shard of vertex v lives on worker v mod m).
    shard = plan.moved % new_m
    volumes = _vertex_state_volumes(
        engine.graph, plan.moved, shard, plan.targets, new_m
    )
    if new_plan is not None and old_plan is not None:
        closure_volumes, closure_bytes = _closure_delta_volumes(
            new_engine, new_plan, old_plan.cached_deps, plan.old_id
        )
        volumes = volumes + closure_volumes
    else:
        # Per-round-compiled engines replicate no closure state, so a
        # shrink moves only the vertices themselves.
        closure_bytes = 0
    seconds, migrated, prep_s = _charge_transition(
        new_engine, new_plan, volumes, handover_t, "shrink"
    )
    report = MigrationReport(
        direction="shrink",
        seconds=seconds,
        migrated_bytes=migrated,
        closure_bytes=closure_bytes,
        preprocessing_s=prep_s,
        num_workers=new_m,
    )
    record = ShrinkRecord(
        plan=plan,
        old_cluster=engine.cluster,
        old_partitioning=engine.partitioning,
        crash=fault,
    )
    return new_engine, record, report


def _sync_recovered_crashes(record: ShrinkRecord, shrunk_schedule) -> None:
    """Carry recovered-crash bookkeeping back to the original schedule.

    The shrink itself resolved ``record.crash``; any crash recovered
    *while shrunk* has a value-equal twin in the shrunk numbering
    (frozen dataclasses hash by value), found by applying the same
    remap the shrink applied.
    """
    original = record.old_cluster.faults
    if original is None:
        return
    original.mark_recovered(record.crash)
    if shrunk_schedule is None:
        return
    worker_map = record.plan.worker_map
    for fault in original.crashes():
        if fault == record.crash or fault.worker not in worker_map:
            continue
        twin = replace(fault, worker=worker_map[fault.worker])
        if shrunk_schedule.recovered(twin):
            original.mark_recovered(fault)


def rejoin_engine(
    engine, record: ShrinkRecord, provision_s: float = 0.0
) -> Tuple[object, MigrationReport]:
    """Grow back to the pre-shrink cluster (the inverse path).

    ``engine`` is the shrunk engine currently training; the returned
    engine runs on ``record.old_cluster`` with the original
    partitioning.  The rejoining worker re-fetches its vertices from
    the survivors that absorbed them plus its closure state from the
    vertex owners; no rollback happens -- the shared model object is
    already current.  ``provision_s`` models the replacement's spin-up
    before the transfer starts.
    """
    _sync_recovered_crashes(
        record, engine.faults.schedule if engine.faults else None
    )
    new_engine = engine.respawn(record.old_cluster, record.old_partitioning)
    new_engine.rollback_to_epoch(engine._epoch)
    handover_t = engine.timeline.makespan + max(0.0, provision_s)

    m = record.old_cluster.num_workers
    plan = record.plan
    rejoined = plan.dead_worker
    new_plan = new_engine.plan()
    # Moved vertices come back from the survivors that absorbed them.
    holders = np.asarray(
        [plan.old_id(int(t)) for t in plan.targets], dtype=np.int64
    )
    receivers = np.full(len(plan.moved), rejoined, dtype=np.int64)
    volumes = _vertex_state_volumes(
        engine.graph, plan.moved, holders, receivers, m
    )
    # The rejoining worker rebuilds its closure state from scratch; the
    # survivors shed theirs for free (dropping cached state is local).
    closure_bytes = 0
    feat_bytes = new_engine.graph.feature_dim * 4
    assignment = record.old_partitioning.assignment
    for l in range(new_engine.num_layers if new_plan is not None else 0):
        cached = new_plan.cached_deps[l][rejoined]
        for owner in np.unique(assignment[cached]) if len(cached) else ():
            count = int((assignment[cached] == owner).sum())
            if int(owner) == rejoined:
                continue
            volumes[int(owner), rejoined] += count * feat_bytes
            closure_bytes += count * feat_bytes
    # Current parameters stream from a peer (the model kept training
    # while the worker was away).
    peer = 0 if rejoined != 0 else 1
    volumes[peer, rejoined] += new_engine.model.parameter_bytes()
    seconds, migrated, prep_s = _charge_transition(
        new_engine, new_plan, volumes, handover_t, "rejoin"
    )
    seconds += max(0.0, provision_s)
    report = MigrationReport(
        direction="rejoin",
        seconds=seconds,
        migrated_bytes=migrated,
        closure_bytes=closure_bytes,
        preprocessing_s=prep_s,
        num_workers=m,
    )
    return new_engine, report


class CrashRecovery:
    """What a training loop does about crashes, decided in one place.

    What :class:`repro.training.resilient.ResilientTrainer` and the
    chaos harness's timing loop share: the recovery budget, the
    restart-or-shrink choice, the shrinks not yet grown back and the
    rejoin countdown.  Both methods return the engine to continue with
    (swapped after a shrink or rejoin) and the :class:`RecoveryEvent`;
    rolling state back to the checkpoint stays with the loop.
    """

    def __init__(self, policy: RecoveryPolicy):
        self.policy = policy
        self.crash_count = 0
        self.shrink_stack: List[ShrinkRecord] = []
        self.epochs_since_shrink = 0

    def on_crash(
        self, engine, crash: WorkerCrashError, epoch: int, checkpoint_epoch: int
    ) -> Tuple[object, RecoveryEvent]:
        """Restart ``crash``'s worker or shrink it away, per the policy."""
        policy = self.policy
        if self.crash_count >= policy.max_recoveries:
            raise RecoveryExhaustedError(
                crash.fault, crash.detected_at_s, self.crash_count
            ) from crash
        self.crash_count += 1
        fault = crash.fault
        if (
            policy.should_shrink(fault.permanent)
            and engine.cluster.num_workers >= 2
        ):
            engine, record, report = shrink_engine(engine, crash)
            self.shrink_stack.append(record)
            self.epochs_since_shrink = 0
            recovery_s = report.seconds
            refetch = report.migrated_bytes  # closure delta included
            strategy = "shrink"
        else:
            recovery_s, refetch = recover_from_crash(
                engine, crash, provision_s=policy.provision_s
            )
            strategy = "restart"
        return engine, RecoveryEvent(
            epoch=epoch,
            worker=fault.worker,
            detected_at_s=crash.detected_at_s,
            recovery_s=recovery_s,
            refetch_bytes=refetch,
            rolled_back_to_epoch=checkpoint_epoch,
            strategy=strategy,
            num_workers_after=engine.cluster.num_workers,
        )

    def on_epoch_completed(
        self, engine, epoch: int
    ) -> Tuple[object, Optional[RecoveryEvent]]:
        """Grow back to the pre-shrink cluster when the policy says so."""
        policy = self.policy
        if not self.shrink_stack or policy.rejoin_after_epochs is None:
            return engine, None
        self.epochs_since_shrink += 1
        if self.epochs_since_shrink < policy.rejoin_after_epochs:
            return engine, None
        record = self.shrink_stack.pop()
        self.epochs_since_shrink = 0
        engine, report = rejoin_engine(
            engine, record, provision_s=policy.provision_s
        )
        return engine, RecoveryEvent(
            epoch=epoch,
            worker=record.crash.worker,
            detected_at_s=engine.timeline.makespan,
            recovery_s=report.seconds,
            refetch_bytes=report.migrated_bytes,
            rolled_back_to_epoch=epoch,  # no rollback: model is current
            strategy="rejoin",
            num_workers_after=engine.cluster.num_workers,
        )


__all__ = [
    "ADJ_BYTES_PER_EDGE",
    "CrashRecovery",
    "charge_reshape",
    "MigrationReport",
    "ShrinkRecord",
    "shrink_engine",
    "rejoin_engine",
    "vertex_state_bytes",
]
