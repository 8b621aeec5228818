"""Offline trace replay: reconstruct a recorded run without the engine.

:func:`replay_bundle` re-runs the *analysis* half of an ops problem --
detection, localization, grading -- from a recorded bundle alone.  No
graph is rebuilt, no epoch is charged, no request is served; the
replayer consumes the stored observation stream exactly the way the
live harness consumed the engine's, which makes it suitable for
root-cause analysis of a run recorded elsewhere.

Three bit-identity checks prove the reconstruction is faithful:

- **observations**: every stored observation round-trips through its
  dataclass, and for serving runs the windows are *re-derived from the
  raw request ledger* and must match the stored windows float-for-float
  (the ledger, not the summary, is the source of truth);
- **verdict**: a pipeline rebuilt from the stored parameters and fed
  the stored stream must emit the recorded verdict;
- **grade**: re-grading with the stored grading parameters must
  reproduce the recorded scores exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ops.detectors import DetectionPipeline, Verdict
from repro.ops.evaluators import ProblemGrade, grade_run
from repro.ops.problem import GroundTruth
from repro.ops.signals import (
    FleetWindowObservation,
    WindowObservation,
    observation_from_dict,
    summarise_windows,
)
from repro.utils.jsonio import Record


@dataclass
class ReplayReport(Record):
    """Outcome of one offline replay."""

    name: str
    seed: int
    identical: bool = field(init=False)  # all three checks below hold
    observations_match: bool
    verdict_match: bool
    grade_match: bool
    verdict: Optional[Verdict]
    grade: ProblemGrade
    mismatches: List[str]

    def __post_init__(self):
        self.identical = (
            self.observations_match
            and self.verdict_match
            and self.grade_match
        )


def replay_bundle(bundle: Dict[str, object]) -> ReplayReport:
    """Re-run detection + grading from a recorded bundle."""
    spec = dict(bundle["problem"])
    stored_obs = list(bundle["observations"])
    observations = [observation_from_dict(dict(p)) for p in stored_obs]
    mismatches: List[str] = []

    # Observation fidelity: the dataclass round-trip must be lossless,
    # and serving windows must re-derive from the raw ledger.
    observations_match = [o.to_dict() for o in observations] == stored_obs
    if not observations_match:
        mismatches.append("observation round-trip diverged")
    ledger = list(bundle.get("ledger") or [])
    if ledger:
        # The stored windows say which summary they are: per-replica
        # (fleet) or per-worker.
        kinds = {p.get("type") for p in stored_obs}
        cls = (
            FleetWindowObservation
            if FleetWindowObservation.type_tag in kinds
            else WindowObservation
        )
        derived = summarise_windows(
            ledger, int(spec["window_requests"]), cls, int(spec["nodes"])
        )
        stored_windows = [
            p for p in stored_obs if p.get("type") == cls.type_tag
        ]
        if [w.to_dict() for w in derived] != stored_windows:
            observations_match = False
            mismatches.append("ledger-derived windows diverged")

    # Verdict: rebuild the pipeline and feed the stream.
    pipeline = DetectionPipeline(**bundle["pipeline"])
    verdict: Optional[Verdict] = None
    for obs in observations:
        verdict = pipeline.observe(obs)
        if verdict is not None:
            break
    verdict_payload = verdict.to_dict() if verdict else None
    verdict_match = verdict_payload == bundle["verdict"]
    if not verdict_match:
        mismatches.append(
            f"verdict diverged: {verdict_payload} != {bundle['verdict']}"
        )

    # Grade: same pure function, same recorded parameters.
    truth = GroundTruth.from_dict(dict(bundle["ground_truth"]))
    grade = grade_run(
        observations,
        verdict,
        truth,
        applied=bundle.get("mitigation") is not None,
        grading=dict(bundle["grading"]),
        aborted=bool(bundle.get("aborted")),
    )
    grade_match = grade.to_dict() == bundle["grade"]
    if not grade_match:
        mismatches.append("grade diverged")

    return ReplayReport(
        name=str(spec["name"]),
        seed=int(bundle["seed"]),
        observations_match=observations_match,
        verdict_match=verdict_match,
        grade_match=grade_match,
        verdict=verdict,
        grade=grade,
        mismatches=mismatches,
    )


__all__ = ["ReplayReport", "replay_bundle"]
