"""Operations benchmark: graded detect / localize / mitigate problems.

The ops subsystem turns the repo's fault-injection, elastic-training,
and serving machinery into a benchmark for *operational response*.  A
registered :class:`~repro.ops.problem.OpsProblem` composes a seeded
workload with one injected degradation; the harness runs it while a
:class:`~repro.ops.detectors.DetectionPipeline` watches only observable
signals, applies the spec'd mitigation when a verdict lands, and grades
time-to-detect, blame accuracy, SLO recovery, and post-mitigation
regression.  Recorded bundles replay offline, bit-identically, without
re-executing the engine.  See ``docs/ops.md``.
"""

from repro.ops.detectors import DetectionPipeline, Verdict
from repro.ops.evaluators import (
    DetectionGrade,
    MitigationGrade,
    ProblemGrade,
    grade_detection,
    grade_mitigation,
    grade_problem,
    grade_run,
)
from repro.ops.harness import OpsRunResult, derive_sub_seed, run_problem
from repro.ops.mitigations import (
    MitigationRecord,
    mitigate_cache_refresh,
    mitigate_failover,
    mitigate_replan,
    mitigate_scale_out,
    mitigate_shed,
    mitigate_shrink,
)
from repro.ops.problem import KINDS, MITIGATIONS, GroundTruth, OpsProblem
from repro.ops.recorder import (
    SCHEMA_VERSION,
    bundle_from_result,
    load_bundle,
    save_bundle,
)
from repro.ops.registry import get_problem, list_problems, register
from repro.ops.replay import ReplayReport, replay_bundle
from repro.ops.signals import (
    CrashObservation,
    EpochObservation,
    FleetWindowObservation,
    TimelineObserver,
    WindowObservation,
    observation_from_dict,
)

__all__ = [
    "KINDS",
    "MITIGATIONS",
    "SCHEMA_VERSION",
    "CrashObservation",
    "DetectionGrade",
    "DetectionPipeline",
    "EpochObservation",
    "FleetWindowObservation",
    "GroundTruth",
    "MitigationGrade",
    "MitigationRecord",
    "OpsProblem",
    "OpsRunResult",
    "ProblemGrade",
    "ReplayReport",
    "TimelineObserver",
    "Verdict",
    "WindowObservation",
    "bundle_from_result",
    "derive_sub_seed",
    "get_problem",
    "grade_detection",
    "grade_mitigation",
    "grade_problem",
    "grade_run",
    "list_problems",
    "load_bundle",
    "mitigate_cache_refresh",
    "mitigate_failover",
    "mitigate_replan",
    "mitigate_scale_out",
    "mitigate_shed",
    "mitigate_shrink",
    "observation_from_dict",
    "register",
    "replay_bundle",
    "run_problem",
    "save_bundle",
]
