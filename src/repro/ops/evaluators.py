"""Graded scoring of detection and mitigation against ground truth.

Grading is deliberately mechanical -- every score is a pure function of
the observation stream, the verdict, the mitigation record, and the
grading parameters recorded alongside them -- so the replayer can
recompute identical grades offline from a bundle.

**Detection** scores three components:

- *kind* (0.4): did the detector name the right degradation class?
- *blame* (0.4): worker blame is all-or-nothing; link blame scores 0.5
  per endpoint (``None`` matching ``None`` counts -- a wildcard fault
  localized as a wildcard is correct); layer blame is all-or-nothing.
- *time-to-detect* (0.2): ``min(1, budget / ttd)`` -- detecting within
  the budget scores 1, and the score decays hyperbolically after it.

**Mitigation** scores two components:

- *recovery* (0.6): time from detection until the first unit whose
  recovery metric (epoch duration, refresh fraction, or window p95)
  is back under the recovered threshold, scored ``min(1, budget /
  recovery_s)``.
- *regression* (0.4): how much worse the post-recovery steady state is
  than the healthy baseline, scored linearly against the allowance.

An aborted run (an unmitigated permanent crash kills the workload)
scores zero on mitigation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ops.detectors import Verdict
from repro.ops.problem import GroundTruth
from repro.ops.signals import CrashObservation
from repro.utils.jsonio import Record

_DETECTION_WEIGHTS = (0.4, 0.4, 0.2)  # kind, blame, ttd
_MITIGATION_WEIGHTS = (0.6, 0.4)  # recovery, regression


@dataclass(frozen=True)
class DetectionGrade(Record):
    detected: bool
    kind_correct: bool
    blame_score: float
    ttd_s: float
    ttd_budget_s: float
    ttd_score: float
    score: float



@dataclass(frozen=True)
class MitigationGrade(Record):
    applied: bool
    recovered: bool
    recovery_s: float
    recovery_budget_s: float
    recovery_score: float
    regression: float
    regression_score: float
    score: float



@dataclass(frozen=True)
class ProblemGrade(Record):
    detection: DetectionGrade
    mitigation: MitigationGrade
    aborted: bool
    overall: float



def blame_score(verdict: Verdict, truth: GroundTruth) -> float:
    """Localization accuracy in [0, 1] against the ground truth."""
    if truth.worker is not None:
        return 1.0 if verdict.worker == truth.worker else 0.0
    if truth.link is not None:
        if verdict.link is None:
            return 0.0
        score = 0.0
        if verdict.link[0] == truth.link[0]:
            score += 0.5
        if verdict.link[1] == truth.link[1]:
            score += 0.5
        return score
    if truth.layer is not None:
        return 1.0 if verdict.layer == truth.layer else 0.0
    return 1.0  # nothing to localize


def grade_detection(
    verdict: Optional[Verdict],
    truth: GroundTruth,
    ttd_budget_s: float,
) -> DetectionGrade:
    if verdict is None:
        return DetectionGrade(
            detected=False, kind_correct=False, blame_score=0.0,
            ttd_s=math.inf, ttd_budget_s=ttd_budget_s, ttd_score=0.0,
            score=0.0,
        )
    kind_ok = verdict.kind == truth.kind
    blame = blame_score(verdict, truth) if kind_ok else 0.0
    ttd = max(verdict.detected_at_s - truth.start_s, 0.0)
    ttd_score = 1.0 if ttd <= ttd_budget_s else (
        ttd_budget_s / ttd if ttd > 0 else 1.0
    )
    w_kind, w_blame, w_ttd = _DETECTION_WEIGHTS
    score = (
        w_kind * float(kind_ok) + w_blame * blame + w_ttd * ttd_score
        if kind_ok else 0.0
    )
    return DetectionGrade(
        detected=True,
        kind_correct=kind_ok,
        blame_score=blame,
        ttd_s=ttd,
        ttd_budget_s=ttd_budget_s,
        ttd_score=ttd_score,
        score=score,
    )


def _recovery_value(obs, criterion: str) -> float:
    if criterion == "refresh":
        return obs.refresh_fraction
    if criterion == "p95":
        return obs.p95_s
    if criterion == "shed":
        return obs.shed_fraction
    return obs.duration


def _regression_value(obs, criterion: str) -> float:
    if criterion in ("p95", "shed"):
        return obs.p95_s
    return obs.duration


def grade_mitigation(
    observations: Sequence,
    verdict: Optional[Verdict],
    applied: bool,
    *,
    criterion: str,
    baseline_duration: float,
    recovered_factor: float,
    recovery_budget_s: float,
    regression_allowance: float,
    baseline_p95: Optional[float] = None,
    refresh_threshold: float = 0.25,
    aborted: bool = False,
) -> MitigationGrade:
    """Score recovery + post-recovery regression from the observations.

    ``criterion`` selects the recovery metric: ``"duration"`` (epoch
    seconds vs ``recovered_factor * baseline_duration``), ``"refresh"``
    (cache refresh fraction vs the absolute ``refresh_threshold``),
    ``"p95"`` (window p95 vs ``recovered_factor * baseline_p95``), or
    ``"shed"`` (fleet window shed fraction vs the absolute
    ``refresh_threshold`` slot).  Regression is always measured on
    durations (training) or p95 (serving/fleet) against the
    corresponding baseline.
    """
    no_grade = MitigationGrade(
        applied=applied, recovered=False, recovery_s=math.inf,
        recovery_budget_s=recovery_budget_s, recovery_score=0.0,
        regression=math.inf, regression_score=0.0, score=0.0,
    )
    if verdict is None or aborted:
        return no_grade

    if criterion in ("refresh", "shed"):
        recovery_threshold = refresh_threshold
    elif criterion == "p95":
        recovery_threshold = recovered_factor * float(baseline_p95 or 0.0)
    else:
        recovery_threshold = recovered_factor * baseline_duration
    regression_baseline = (
        float(baseline_p95 or 0.0)
        if criterion in ("p95", "shed") else baseline_duration
    )

    # Units after the detecting one, in stream order.
    post: List = [
        o for o in observations
        if not isinstance(o, CrashObservation) and o.unit > verdict.unit
    ]
    recovery_s = math.inf
    steady: List[float] = []
    for obs in post:
        if recovery_s == math.inf:
            if _recovery_value(obs, criterion) <= recovery_threshold:
                recovery_s = obs.t_end - verdict.detected_at_s
                steady.append(_regression_value(obs, criterion))
        else:
            steady.append(_regression_value(obs, criterion))
    if recovery_s == math.inf:
        return no_grade

    recovery_score = (
        1.0 if recovery_s <= recovery_budget_s
        else (recovery_budget_s / recovery_s if recovery_s > 0 else 1.0)
    )
    if steady and regression_baseline > 0:
        regression = float(np.mean(steady)) / regression_baseline - 1.0
    else:
        regression = 0.0
    over = max(regression, 0.0)
    regression_score = (
        max(0.0, 1.0 - over / regression_allowance)
        if regression_allowance > 0 else (1.0 if over == 0 else 0.0)
    )
    w_rec, w_reg = _MITIGATION_WEIGHTS
    return MitigationGrade(
        applied=applied,
        recovered=True,
        recovery_s=recovery_s,
        recovery_budget_s=recovery_budget_s,
        recovery_score=recovery_score,
        regression=regression,
        regression_score=regression_score,
        score=w_rec * recovery_score + w_reg * regression_score,
    )


def grade_problem(
    detection: DetectionGrade,
    mitigation: MitigationGrade,
    aborted: bool = False,
) -> ProblemGrade:
    return ProblemGrade(
        detection=detection,
        mitigation=mitigation,
        aborted=aborted,
        overall=0.5 * detection.score + 0.5 * mitigation.score,
    )


def grade_run(
    observations: Sequence,
    verdict: Optional[Verdict],
    truth: GroundTruth,
    applied: bool,
    grading: Dict[str, object],
    aborted: bool = False,
) -> ProblemGrade:
    """Grade from the exact parameter dict a bundle records.

    Both the live harness and the offline replayer call this with the
    same ``grading`` payload, so the two grades cannot diverge.
    """
    detection = grade_detection(
        verdict, truth, float(grading["ttd_budget_s"])
    )
    baseline_p95 = grading.get("baseline_p95")
    mitigation = grade_mitigation(
        observations, verdict, applied,
        criterion=str(grading["criterion"]),
        baseline_duration=float(grading["baseline_duration"]),
        recovered_factor=float(grading["recovered_factor"]),
        recovery_budget_s=float(grading["recovery_budget_s"]),
        regression_allowance=float(grading["regression_allowance"]),
        baseline_p95=float(baseline_p95)
        if baseline_p95 is not None else None,
        refresh_threshold=float(grading.get("refresh_threshold", 0.25)),
        aborted=aborted,
    )
    return grade_problem(detection, mitigation, aborted)


__all__ = [
    "DetectionGrade",
    "MitigationGrade",
    "ProblemGrade",
    "blame_score",
    "grade_detection",
    "grade_mitigation",
    "grade_problem",
    "grade_run",
]
