"""Mitigation policies: act on a verdict using only production levers.

Each mitigation consumes the detector's :class:`~repro.ops.detectors.
Verdict` -- never the injected schedule -- and pulls a lever the
resilience/serving layers already expose to operators:

- **shrink** -- evict the blamed worker via the elastic machinery
  (:func:`~repro.resilience.elastic.shrink_engine`).  For a crash the
  real :class:`WorkerCrashError` is reused; for a straggler a synthetic
  permanent crash is raised against the blamed worker (an operator
  cordoning a bad host).
- **replan** -- re-run dependency planning with the communication cost
  constant inflated by the observed send-ratio squared, pushing the
  planner away from the degraded network (the health monitor's
  constants-override pattern, driven by the detector's evidence).
- **cache-refresh** -- restore the problem's healthy
  :class:`~repro.cache.budget.CacheConfig`, lifting the collapsed
  staleness bound so refresh traffic stops.
- **shed** -- enable admission control on the live server
  (``slo.max_pending``), trading offered load for latency.
- **failover** -- quarantine the blamed replica on a live
  :class:`~repro.serving.fleet.ServingFleet`; the router stops sending
  it traffic and re-serves its unanswered requests on survivors.
- **scale-out** -- ask the fleet for one more replica at the verdict
  time, paying the spin-up migration through the autoscaler's
  transition charge.

Every application returns a :class:`MitigationRecord` so bundles can
replay the decision offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.cache.budget import CacheConfig
from repro.ops.detectors import Verdict
from repro.ops.problem import OpsProblem
from repro.resilience.elastic import shrink_engine
from repro.resilience.faults import WorkerCrashError, WorkerCrashFault
from repro.serving.slo import SLOConfig
from repro.utils.jsonio import Record


@dataclass(frozen=True)
class MitigationRecord(Record):
    """What was done, when, and with which parameters."""

    name: str
    applied_at_s: float
    unit: int  # epoch / window the triggering verdict landed on
    detail: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def of(cls, name: str, verdict: Verdict, **detail) -> "MitigationRecord":
        """A record stamped with the triggering verdict's time and unit."""
        return cls(name, verdict.detected_at_s, verdict.unit, detail)


# ----------------------------------------------------------------------
def mitigate_shrink(
    engine,
    verdict: Verdict,
    crash: Optional[WorkerCrashError] = None,
) -> Tuple[object, MitigationRecord]:
    """Evict the blamed worker; returns the shrunk engine.

    ``crash`` is the real error when the verdict came from one; absent
    that, a synthetic permanent crash evicts the blamed straggler.
    """
    if crash is None:
        if verdict.worker is None:
            raise ValueError("shrink mitigation needs a blamed worker")
        now = engine.timeline.makespan
        fault = WorkerCrashFault(
            worker=verdict.worker,
            at_time=now,
            detection_timeout_s=0.0,
            permanent=True,
        )
        crash = WorkerCrashError(fault, now)
        synthetic = True
    else:
        synthetic = False
    new_engine, _record, report = shrink_engine(engine, crash)
    return new_engine, MitigationRecord.of(
        "shrink", verdict,
        evicted_worker=crash.fault.worker,
        synthetic_crash=synthetic,
        transition_s=report.seconds,
        migrated_bytes=report.migrated_bytes,
        num_workers_after=report.num_workers,
    )


def mitigate_replan(engine, verdict: Verdict) -> MitigationRecord:
    """Re-plan with comm costs inflated by the observed degradation.

    The detector's ``send_ratio`` measures how much longer the blamed
    sender occupies its NIC per epoch; squaring it biases the planner
    firmly toward compute-heavy placements (cache more, ship less) --
    the same lever :class:`~repro.resilience.health.ClusterHealthMonitor`
    pulls, but driven by the ops verdict instead of EWMA estimates.
    """
    base = engine.constants
    if base is None:
        engine.plan()
        base = engine.constants
    ratio = float(verdict.evidence.get("send_ratio", 2.0))
    factor = ratio * ratio
    overrides = {
        w: replace(
            base,
            t_c=base.t_c * factor,
            t_c_layer=[t * factor for t in base.t_c_layer],
        )
        for w in range(engine.cluster.num_workers)
    }
    engine.replan(overrides)
    return MitigationRecord.of(
        "replan", verdict, comm_factor=factor, send_ratio=ratio
    )


def mitigate_cache_refresh(
    engine, verdict: Verdict, problem: OpsProblem
) -> MitigationRecord:
    """Restore the healthy staleness bound; refresh traffic stops."""
    healthy = CacheConfig(tau=problem.tau if problem.tau is not None else 2.0)
    engine.cache_config = healthy
    return MitigationRecord.of(
        "cache-refresh", verdict, restored_tau=healthy.tau
    )


def mitigate_shed(
    server, verdict: Verdict, problem: OpsProblem
) -> MitigationRecord:
    """Turn on admission control for the remaining traffic."""
    config = server.config
    server.config = replace(
        config,
        slo=replace(
            config.slo
            if config.slo is not None else SLOConfig(),
            max_pending=problem.shed_max_pending,
        ),
    )
    return MitigationRecord.of(
        "shed", verdict, max_pending=problem.shed_max_pending
    )


def mitigate_failover(fleet, verdict: Verdict) -> MitigationRecord:
    """Quarantine the blamed replica; survivors absorb its traffic."""
    if verdict.worker is None:
        raise ValueError("failover mitigation needs a blamed replica")
    fleet.quarantine(verdict.worker)
    return MitigationRecord.of(
        "failover", verdict, quarantined_replica=verdict.worker
    )


def mitigate_scale_out(fleet, verdict: Verdict) -> MitigationRecord:
    """Add one replica, charging its spin-up at the verdict time."""
    event = fleet.scale_out(
        at_s=verdict.detected_at_s,
        reason="ops:hotspot-burn",
    )
    detail: Dict[str, object] = {"scaled": event is not None}
    if event is not None:
        detail.update({
            "new_replica": event.replica,
            "transition_s": event.transition_s,
            "migrated_bytes": event.migrated_bytes,
        })
    return MitigationRecord.of("scale-out", verdict, **detail)


__all__ = [
    "MitigationRecord",
    "mitigate_shrink",
    "mitigate_replan",
    "mitigate_cache_refresh",
    "mitigate_shed",
    "mitigate_failover",
    "mitigate_scale_out",
]
