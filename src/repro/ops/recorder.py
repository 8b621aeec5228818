"""Record an ops run into a self-contained JSON bundle.

A bundle carries everything the offline replayer needs to reconstruct
the run *without re-executing the engine*: the problem spec and seed,
the ground truth, the detection pipeline's parameters, the observation
stream (exact floats -- JSON serialises doubles via ``repr``, so they
round-trip bit-identically), the verdict, the mitigation record, the
grading parameters with their resolved second-denominated budgets, the
resulting grade, the serving latency ledger (raw request records), and
the run's chrome trace.

``repro ops run --record out.json`` writes one; ``repro ops replay``
and ``repro ops grade`` consume it.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.cluster.trace import timeline_to_chrome_trace
from repro.ops.harness import OpsRunResult

#: Bump when the bundle layout changes incompatibly (2: training traces
#: carry the overlap marks' ``overlap`` spans).
SCHEMA_VERSION = 2


def bundle_from_result(result: OpsRunResult) -> Dict[str, object]:
    """Flatten one run into the bundle dict.

    Every part is already plain JSON data: the records' ``to_dict``
    payloads, the spec, and the ledger rows hold builtin scalars only
    (``test_bundle_is_json_stable`` pins that).
    """
    return {
        "schema": SCHEMA_VERSION,
        "problem": result.problem.spec_dict(),
        "seed": result.seed,
        "mitigate": result.mitigate,
        "ground_truth": result.ground_truth.to_dict(),
        "pipeline": result.pipeline_params,
        "observations": [o.to_dict() for o in result.observations],
        "verdict": result.verdict.to_dict() if result.verdict else None,
        "mitigation": (
            result.mitigation.to_dict() if result.mitigation else None
        ),
        "aborted": result.aborted,
        "grading": result.grading,
        "grade": result.grade.to_dict(),
        "clean_unit_s": result.clean_unit_s,
        "ledger": result.ledger_records,
        "trace": timeline_to_chrome_trace(result.timeline),
    }


def save_bundle(result: OpsRunResult, path: str) -> str:
    """Record ``result`` at ``path`` (appends ``.json`` if missing)."""
    if not path.endswith(".json"):
        path = path + ".json"
    bundle = bundle_from_result(result)
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=1)
        fh.write("\n")
    return path


def load_bundle(path: str) -> Dict[str, object]:
    with open(path) as fh:
        bundle = json.load(fh)
    schema = bundle.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"bundle schema {schema!r} unsupported "
            f"(this build reads schema {SCHEMA_VERSION})"
        )
    return bundle


__all__ = [
    "SCHEMA_VERSION",
    "bundle_from_result",
    "save_bundle",
    "load_bundle",
]
