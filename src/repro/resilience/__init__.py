"""Resilience: fault injection, retry semantics, and crash recovery.

The paper evaluates NeutronStar on a healthy cluster; this subsystem
asks what the DepCache/DepComm trade-off looks like *off* the happy
path.  Declarative, seeded fault schedules (:mod:`.faults`) are applied
to device/network lookups by a per-run injector (:mod:`.injector`);
lost messages are retransmitted with timeout + exponential backoff
(:mod:`.retry`); crashed workers are recovered by checkpoint
rollback-restart under a :class:`RecoveryPolicy` (:mod:`.recovery`,
executed by :class:`repro.training.resilient.ResilientTrainer`); and
the chaos harness (:mod:`.chaos`) measures the damage per engine.

Two elastic extensions: when no replacement can be provisioned the
survivors absorb the dead worker's partition and training continues on
the smaller cluster (:mod:`.elastic`); and a health monitor re-estimates
the cost-model constants from observed timings and re-plans the
DepCache/DepComm split online when they drift (:mod:`.health`).
"""

from repro.resilience.faults import (
    FaultSchedule,
    LinkDegradationFault,
    MessageLossFault,
    RecoveryExhaustedError,
    StragglerFault,
    WorkerCrashError,
    WorkerCrashFault,
)
from repro.resilience.injector import FaultInjector, TransferPlan
from repro.resilience.recovery import RecoveryEvent, RecoveryPolicy
from repro.resilience.chaos import ChaosReport, run_chaos
from repro.resilience.elastic import (
    CrashRecovery,
    MigrationReport,
    ShrinkRecord,
    rejoin_engine,
    shrink_engine,
)
from repro.resilience.health import ClusterHealthMonitor, run_replan_sweep

__all__ = [
    "FaultSchedule",
    "StragglerFault",
    "LinkDegradationFault",
    "MessageLossFault",
    "WorkerCrashFault",
    "WorkerCrashError",
    "RecoveryExhaustedError",
    "FaultInjector",
    "TransferPlan",
    "RecoveryPolicy",
    "RecoveryEvent",
    "ChaosReport",
    "run_chaos",
    "CrashRecovery",
    "MigrationReport",
    "ShrinkRecord",
    "shrink_engine",
    "rejoin_engine",
    "ClusterHealthMonitor",
    "run_replan_sweep",
]
