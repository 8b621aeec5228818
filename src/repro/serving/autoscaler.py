"""SLO-burn-driven autoscaling of the serving fleet.

The autoscaler watches the same per-segment statistics the health
checker derives from the ledgers -- never the injected schedule -- and
turns sustained SLO burn into replica count changes:

- **scale out** when ``burn_windows`` consecutive segments either blow
  the p99 target (``p99 > target_p99_s``) or shed more than
  ``shed_burn_fraction`` of offered load;
- **scale in** when ``idle_windows`` consecutive segments sit below
  ``idle_fraction`` of the target with zero shedding and the fleet is
  above ``min_replicas``.

Replica spin-up is not free: a new serving group must stream every
partition's features and adjacency from the donor replica before it can
take traffic.  :func:`charge_replica_transition` prices that handover
through :func:`~repro.comm.scheduler.run_exchange` on the new replica's
timeline -- the same machinery (and the same
``ADJ_BYTES_PER_EDGE``-per-edge state model) the elastic trainer uses
for shrink/rejoin migrations -- and records a ``migration`` span, so
chrome traces show fleet reshapes exactly like training reshapes.  The
fleet gates routing on the resulting ``ready_at_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.timeline import Timeline
from repro.comm.scheduler import CommOptions, run_exchange
from repro.resilience.elastic import ADJ_BYTES_PER_EDGE
from repro.utils.jsonio import Record


@dataclass(frozen=True)
class AutoscalerConfig:
    """SLO targets and hysteresis windows."""

    target_p99_s: float
    min_replicas: int = 1
    max_replicas: int = 4
    burn_windows: int = 2
    idle_windows: int = 4
    idle_fraction: float = 0.25
    shed_burn_fraction: float = 0.05

    def __post_init__(self):
        if self.target_p99_s <= 0:
            raise ValueError("target_p99_s must be positive")
        if self.min_replicas < 1 or self.max_replicas < self.min_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if self.burn_windows < 1 or self.idle_windows < 1:
            raise ValueError("hysteresis windows must be >= 1")


@dataclass(frozen=True)
class ScalingEvent(Record):
    """One applied scaling decision (recorded by the fleet)."""

    action: str  # "scale-out" | "scale-in"
    at_s: float
    replica: int
    reason: str
    transition_s: float = 0.0
    migrated_bytes: float = 0.0


class SLOAutoscaler:
    """Hysteresis counter turning burn/idle streaks into decisions."""

    def __init__(self, config: AutoscalerConfig):
        self.config = config
        self._burn_streak = 0
        self._idle_streak = 0
        self.decisions: List[Dict[str, object]] = []

    def observe(
        self, p99_s: float, shed_fraction: float,
        num_replicas: int, at_s: float,
    ) -> Optional[str]:
        """Feed one segment's stats; returns a decision or ``None``."""
        cfg = self.config
        burning = p99_s > cfg.target_p99_s or (
            shed_fraction > cfg.shed_burn_fraction
        )
        idle = (
            p99_s < cfg.idle_fraction * cfg.target_p99_s
            and shed_fraction == 0.0
        )
        self._burn_streak = self._burn_streak + 1 if burning else 0
        self._idle_streak = self._idle_streak + 1 if idle else 0

        decision: Optional[str] = None
        if (
            self._burn_streak >= cfg.burn_windows
            and num_replicas < cfg.max_replicas
        ):
            decision = "scale-out"
        elif (
            self._idle_streak >= cfg.idle_windows
            and num_replicas > cfg.min_replicas
        ):
            decision = "scale-in"
        if decision is not None:
            self.decisions.append({
                "action": decision,
                "at_s": float(at_s),
                "p99_s": float(p99_s),
                "shed_fraction": float(shed_fraction),
                "num_replicas": int(num_replicas),
            })
            self._burn_streak = 0
            self._idle_streak = 0
        return decision


# ----------------------------------------------------------------------
def replica_state_bytes(graph, partitioning, m: int) -> np.ndarray:
    """Per-worker bytes of partition state a fresh replica must load.

    Worker ``w``'s share is its owned vertices' features plus their
    in-edges' adjacency -- the same per-vertex state model elastic
    migrations charge (``feature_dim * 4 + in_deg * ADJ_BYTES_PER_EDGE``
    bytes per vertex).
    """
    assignment = partitioning.assignment
    in_deg = np.bincount(graph.dst, minlength=graph.num_vertices)
    per_vertex = graph.feature_dim * 4 + in_deg * ADJ_BYTES_PER_EDGE
    out = np.zeros(m)
    for w in range(m):
        out[w] = float(per_vertex[assignment == w].sum())
    return out


def charge_replica_transition(
    timeline: Timeline,
    network,
    graph,
    partitioning,
    handover_s: float,
    direction: str = "scale-out",
    comm: CommOptions = CommOptions.all(),
) -> Tuple[float, float]:
    """Charge a replica spin-up/teardown on ``timeline``.

    Every worker of the (new or retiring) replica streams its partition
    state across the wire -- a ring exchange where worker ``w`` receives
    its shard from the donor's ``(w + 1) % m`` peer, priced through
    :func:`run_exchange` after advancing to the handover point.  Returns
    ``(transition_seconds, migrated_bytes)`` and records a ``migration``
    span tagged with ``direction``.
    """
    m = timeline.num_workers
    shard_bytes = replica_state_bytes(graph, partitioning, m)
    volumes = np.zeros((m, m))
    for w in range(m):
        volumes[(w + 1) % m, w] = shard_bytes[w]
    for w in range(m):
        timeline.advance_at_least_until(w, handover_s)
    t0 = timeline.barrier()
    run_exchange(
        timeline, network, volumes,
        options=comm,
        barrier=True,
        bytes_per_message=graph.feature_dim * 4,
    )
    t1 = timeline.barrier()
    timeline.record_span(
        0, "migration", t0, t1,
        direction=direction,
        migrated_bytes=int(volumes.sum()),
        num_workers=m,
    )
    return t1 - t0, float(volumes.sum())


__all__ = [
    "AutoscalerConfig",
    "ScalingEvent",
    "SLOAutoscaler",
    "replica_state_bytes",
    "charge_replica_transition",
]
