"""Correctness gates.  Each failed check counts into ``failed``.

- The paper's equivalence claim: the hybrid engine on 8 workers
  computes the same model as a plain single-worker run, checked on the
  first-epoch loss (also the single-worker baseline of the run).
- Training reaches an accuracy above always answering the majority
  class.
- Every answer ``serve_social`` gave equals the argmax of one
  whole-graph forward of the same model.
- On the reference seed, no exact metric is worse than the committed
  ``results/e2e.json``; one that got *better* passes and is reported,
  because a later change may improve modeled time, and that change may
  not edit the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np
from repro.cluster.spec import ClusterSpec
from repro.core.blocks import build_block
from repro.engines import make_engine
from repro.tensor.tensor import Tensor, no_grad
from repro.training.trainer import DistributedTrainer

from metrics import Metric

REFERENCE = Path(__file__).resolve().parent / "results" / "e2e.json"


@dataclass(frozen=True)
class Check:
    """One gate; ``failed`` is how many failures it adds to the run."""

    name: str
    failed: int
    detail: str

    @property
    def ok(self) -> bool:
        return self.failed == 0


def single_worker_equivalence(graph, fresh_model, first_loss: float) -> Check:
    """Hybrid on ``ecs(8)`` vs the same untrained model on one worker, rel 1e-6."""
    engine = make_engine("hybrid", graph, fresh_model, ClusterSpec.ecs(1))
    single = DistributedTrainer(engine, optimizer="adam", lr=0.01).train(1).final_loss
    ok = abs(first_loss - single) <= 1e-6 * abs(single)
    return Check(
        "single_worker_equivalence", 0 if ok else 1,
        f"first-epoch loss {first_loss!r} on 8 workers, {single!r} on 1",
    )


def accuracy_above_majority(graph, accuracy: float) -> Check:
    labels = graph.labels[graph.test_mask]
    majority = float(np.bincount(labels).max() / len(labels))
    return Check(
        "accuracy_above_majority", 0 if accuracy > majority else 1,
        f"test accuracy {accuracy:.4f}, majority class {majority:.4f}",
    )


def serving_matches_whole_graph(state, chunk: int = 8192) -> Check:
    """Served classes vs a whole-graph forward, one mismatch = one failure.

    The forward runs layer by layer over vertex chunks (every vertex is
    computed, so rows index by global id); one block over all of
    social-large would hold ~1.4 GB of float64 edge tensors.
    """
    graph, model = state.graph, state.model
    ids = np.arange(graph.num_vertices, dtype=np.int64)
    rows = graph.features.astype(np.float64)
    for l in range(1, model.num_layers + 1):
        outputs = []
        for lo in range(0, len(ids), chunk):
            block = build_block(graph, ids[lo:lo + chunk], l)
            with no_grad():
                out = model.layer(l).forward(block, Tensor(rows[block.input_vertices]))
            outputs.append(out.data)
        rows = np.concatenate(outputs)
    reference = rows.argmax(axis=1)
    answered = wrong = 0
    for requests, predictions in state.answers:
        for r in requests:
            if r.req_id in predictions:
                answered += 1
                wrong += int(predictions[r.req_id] != reference[r.vertex])
    return Check(
        "serving_matches_whole_graph", wrong,
        f"{answered - wrong} of {answered} answers equal the whole-graph argmax",
    )


def against_reference(
    workload_name: str, seed: int, values: Dict[str, float],
    metrics: Dict[str, Metric],
) -> List[Check]:
    """Exact metrics vs the committed reference (same seed only)."""
    if not REFERENCE.exists():
        return []
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    if reference["provenance"]["seed"] != seed:
        return []
    committed = reference["workloads"].get(workload_name, {}).get("metrics", {})
    checks = []
    for name, value in values.items():
        metric = metrics[name]
        if not metric.exact or name not in committed:
            continue
        base = committed[name]["value"]
        if metric.regressed(base, value):
            verdict = "worse than"
        elif metric.regressed(value, base):
            verdict = "better than (reference is stale)"
        else:
            verdict = "equals"
        checks.append(Check(
            f"reference.{name}", 1 if verdict == "worse than" else 0,
            f"{value!r} {verdict} committed {base!r}",
        ))
    return checks
