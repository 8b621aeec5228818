"""Engine-side crash recovery: re-provisioning a replacement worker.

Functions over an engine rather than engine methods: the restart half
of :class:`repro.resilience.elastic.CrashRecovery` calls
:func:`recover_from_crash`, and :func:`reprovision_bytes` is the
churn-side number the chaos tables compare across engines.
"""

from __future__ import annotations

from typing import Tuple

from repro.cluster.timeline import CPU, IDLE, NET_RECV
from repro.resilience.faults import WorkerCrashError, WorkerCrashFault


def reprovision_bytes(engine, worker: int) -> int:
    """Dependency state a replacement for ``worker`` must re-fetch.

    Every engine re-transfers the worker's own partition (features +
    parameters); on top of that comes the engine-specific dependency
    state: DepCache must re-materialise its cached L-hop closures
    (features of every cached vertex plus the replicated adjacency),
    while DepComm re-registers mirrors and fetches nothing -- the
    churn-side of the hybrid trade-off.
    """
    plan = engine.plan()
    feat_bytes = engine.graph.feature_dim * 4
    owned = engine.partitioning.part(worker)
    total = len(owned) * feat_bytes + engine.model.parameter_bytes()
    if plan is None:
        # Sampled engines compile a fresh plan per round and replicate
        # no dependency state; the partition + parameters are all a
        # replacement must re-fetch.
        return int(total)
    for l in range(engine.num_layers):
        total += len(plan.cached_deps[l][worker]) * feat_bytes
        block = plan.blocks[l][worker]
        total += block.num_edges * 12  # replicated adjacency (src,dst,w)
        # Historical-cache entries are re-materialised too (the
        # replacement starts cold and must fetch exact values).
        total += len(plan.stale_deps[l][worker]) * engine.dims[l] * 4
    return int(total)


def recover_from_crash(
    engine, crash, provision_s: float = 0.05
) -> Tuple[float, int]:
    """Charge a rollback-restart re-provision to the timeline.

    Models the replacement worker being provisioned, peers streaming
    the partition plus cached dependency state to it, and the
    preprocessing (probe + Algorithm 4) re-running; every surviving
    worker idles at the re-admission barrier meanwhile.  Returns
    ``(recovery_seconds, refetch_bytes)``; the caller is responsible
    for rolling model/optimizer state back to the last checkpoint.
    """
    fault = crash.fault if isinstance(crash, WorkerCrashError) else crash
    if not isinstance(fault, WorkerCrashFault):
        raise TypeError(f"expected a crash fault, got {fault!r}")
    if engine.faults is None:
        raise RuntimeError("engine has no fault schedule to recover from")
    worker = fault.worker
    t0 = engine.timeline.barrier()
    refetch = reprovision_bytes(engine, worker)
    network = engine.cluster.network
    if provision_s > 0:
        engine.timeline.advance(worker, IDLE, provision_s)
    engine.timeline.advance(
        worker, NET_RECV, network.wire_time(refetch), num_bytes=refetch
    )
    plan = engine.plan()
    if plan is not None and plan.preprocessing_s > 0:
        engine.timeline.advance(worker, CPU, plan.preprocessing_s)
    engine.faults.schedule.mark_recovered(fault)
    if engine._cache_active:
        # The replacement's historical cache restarts cold; refresh
        # cluster-wide next epoch so everyone is exact again.
        engine._hist_caches[worker].invalidate()
        engine._force_refresh = True
    t1 = engine.timeline.barrier()  # survivors idle until re-admission
    engine.timeline.record_span(
        worker, "recovery", t0, t1,
        crashed_worker=worker,
        refetch_bytes=refetch,
        strategy="restart",
    )
    return t1 - t0, refetch
