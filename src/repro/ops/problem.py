"""Declarative ops-problem specs and their graded ground truth.

An :class:`OpsProblem` composes a workload (training epochs on a seeded
synthetic graph, or serving traffic from a seeded workload generator)
with one injected degradation.  The spec is plain data: the harness
(:mod:`repro.ops.harness`) materialises graph, model, cluster, and
fault schedule from ``(problem, seed)`` alone, so a problem run is a
pure function of its spec and seed -- the property the trace replayer
and the registry's bit-identity tests rely on.

The :class:`GroundTruth` is what the grader scores against: what kind
of degradation was injected, when it started on the simulated clock,
and which worker / link / layer is to blame.  Detectors never see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.utils.jsonio import Record

#: Problem kinds the registry covers (ISSUE 6's required scenarios
#: plus ISSUE 8's fleet-serving failures).
KINDS = (
    "straggler", "link", "crash", "cache-thrash", "slo-burn",
    "replica-crash", "hotspot-burn",
)

#: Mitigation policy names understood by :mod:`repro.ops.mitigations`.
MITIGATIONS = (
    "shrink", "replan", "cache-refresh", "shed", "failover", "scale-out",
)


@dataclass(frozen=True)
class GroundTruth(Record):
    """The injected degradation, as the grader knows it.

    ``link`` is ``(src, dst)`` with ``None`` meaning wildcard, matching
    :class:`~repro.resilience.faults.LinkDegradationFault` semantics;
    ``layer`` is 1-based (layer ``l`` of the model).
    """

    kind: str
    start_s: float
    worker: Optional[int] = None
    link: Optional[Tuple[Optional[int], Optional[int]]] = None
    layer: Optional[int] = None


@dataclass(frozen=True)
class OpsProblem:
    """One registered operations problem.

    Workload fields size the synthetic graph/model/cluster (training)
    or the request stream (serving); injection fields parameterise the
    degradation; grading fields set the evaluator's budgets.  Budgets
    are expressed in *units* -- epochs for training problems, windows
    for serving ones -- and converted to simulated seconds by the
    harness once the healthy unit duration is known.
    """

    name: str
    kind: str
    description: str
    workload: str = "training"  # "training" | "serving" | "fleet"
    mitigation: str = "shrink"

    # -- workload: synthetic graph / model / cluster -------------------
    engine: str = "hybrid"
    nodes: int = 8
    epochs: int = 12
    graph_vertices: int = 192
    graph_communities: int = 4
    avg_degree: float = 8.0
    feature_dim: int = 16
    num_classes: int = 4
    hidden_dim: int = 64
    arch: str = "gcn"
    layers: int = 2
    tau: Optional[float] = None  # healthy cache staleness bound (epochs)

    # -- injection -----------------------------------------------------
    inject_epoch: int = 4  # fault starts at inject_epoch * clean epoch
    fault_worker: int = 2
    gpu_factor: float = 16.0
    bandwidth_factor: float = 8.0
    extra_latency_s: float = 5e-5

    # -- serving workload ----------------------------------------------
    requests: int = 320
    rate_rps: float = 6000.0
    zipf: float = 0.8
    window_requests: int = 40
    batch_window_s: float = 0.002
    max_batch: int = 32
    inject_request: int = 120  # fault starts at this request's arrival
    shed_max_pending: int = 8

    # -- fleet workload (replicated serving groups) --------------------
    replicas: int = 2
    fault_replica: int = 1
    burst_multiplier: float = 6.0

    # -- detection thresholds (pipeline parameters) --------------------
    detector_params: Dict[str, float] = field(default_factory=dict)

    # -- grading -------------------------------------------------------
    warmup_epochs: int = 0  # cold-start units excluded from the baseline
    baseline_epochs: int = 3  # healthy units the baseline averages over
    ttd_budget_epochs: float = 2.0
    recovered_factor: float = 1.3
    recovery_budget_epochs: float = 5.0
    regression_allowance: float = 0.5
    refresh_recovery_threshold: float = 0.25

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.workload not in ("training", "serving", "fleet"):
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.workload == "fleet":
            if self.replicas < 1:
                raise ValueError("fleet workload needs replicas >= 1")
            if not 0 <= self.fault_replica < self.replicas:
                raise ValueError("fault_replica must index a replica")
        if self.mitigation not in MITIGATIONS:
            raise ValueError(
                f"mitigation must be one of {MITIGATIONS}, "
                f"got {self.mitigation!r}"
            )
        if self.inject_epoch <= self.warmup_epochs + self.baseline_epochs:
            if self.workload == "training":
                raise ValueError(
                    "inject_epoch must leave room for warmup + baseline"
                )

    def spec_dict(self) -> Dict[str, object]:
        """JSON-ready copy of the spec (recorded into bundles)."""
        from dataclasses import asdict

        return asdict(self)


__all__ = ["KINDS", "MITIGATIONS", "GroundTruth", "OpsProblem"]
