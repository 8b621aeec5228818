"""Elastic shrink of a vertex partitioning.

When a worker leaves the cluster permanently, the survivors absorb its
vertices (:func:`absorb_partition`); edges keep following their
destination, whose owner is the master (Section 4.2's master-mirror
design with edge-follows-destination placement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.partition.base import Partitioning


@dataclass(frozen=True)
class ReassignmentPlan:
    """Deterministic plan for survivors absorbing a dead worker's vertices.

    Emitted by :func:`absorb_partition` when a worker leaves the cluster
    permanently (elastic shrink, :mod:`repro.resilience.elastic`).  The
    plan is pure data so the same crash always produces the same
    reshaped partitioning and the same migration traffic.

    Attributes
    ----------
    dead_worker:
        The departing worker, in the *old* numbering.
    old_num_workers:
        Cluster size before the shrink.
    worker_map:
        ``{old_id: new_id}`` for every survivor (the dead worker is
        absent; survivors keep their relative order).
    moved:
        Global vertex ids that change owner, ascending.
    targets:
        ``targets[i]`` is the *new* worker id absorbing ``moved[i]``.
    """

    dead_worker: int
    old_num_workers: int
    worker_map: Dict[int, int]
    moved: np.ndarray
    targets: np.ndarray

    def old_id(self, new_worker: int) -> int:
        """Map a new worker id back to the old numbering."""
        for old, new in self.worker_map.items():
            if new == new_worker:
                return old
        raise KeyError(new_worker)


def absorb_partition(
    partitioning: Partitioning, dead_worker: int
) -> Tuple[ReassignmentPlan, Partitioning]:
    """Shrink a vertex partitioning: survivors absorb ``dead_worker``.

    The dead worker's vertices are dealt, in ascending id order, each to
    the survivor with the fewest vertices so far (ties to the lowest new
    id) -- a deterministic balance-greedy that keeps the reshaped
    partitioning's vertex balance close to the original's.  Survivors
    keep their own vertices and their relative order; worker ids are
    renumbered ``0 .. m-2``.
    """
    m = partitioning.num_parts
    if m < 2:
        raise ValueError("cannot shrink a single-worker partitioning")
    if not 0 <= dead_worker < m:
        raise ValueError(f"dead worker {dead_worker} not in 0..{m - 1}")
    survivors = [w for w in range(m) if w != dead_worker]
    worker_map = {old: new for new, old in enumerate(survivors)}
    assignment = partitioning.assignment
    new_assignment = np.empty_like(assignment)
    for old, new in worker_map.items():
        new_assignment[assignment == old] = new
    moved = np.where(assignment == dead_worker)[0]
    loads = np.bincount(
        new_assignment[assignment != dead_worker], minlength=m - 1
    ).astype(np.int64)
    targets = np.empty(len(moved), dtype=np.int64)
    for i, v in enumerate(moved):
        target = int(np.argmin(loads))
        new_assignment[v] = target
        targets[i] = target
        loads[target] += 1
    plan = ReassignmentPlan(
        dead_worker=dead_worker,
        old_num_workers=m,
        worker_map=worker_map,
        moved=moved,
        targets=targets,
    )
    reshaped = Partitioning(
        new_assignment,
        num_parts=m - 1,
        method=f"{partitioning.method}-absorb{dead_worker}",
    )
    return plan, reshaped
