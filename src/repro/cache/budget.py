"""Cache configuration and the budget shared with DepCache closures.

The paper's Algorithm 4 spends one per-worker memory budget ``S`` on
replicated dependency subtrees.  The caching subsystem draws from the
*same* ``S`` (via :class:`repro.cluster.memory.MemoryTracker`): every
byte granted to a historical-embedding entry is a byte the greedy can
no longer spend on a closure, and vice versa.  ``CacheBudget`` is the
gatekeeper for the cache's side of that split, with an optional
``capacity_bytes`` cap on the cache's share; :func:`rank_candidates`
orders the candidates it admits a prefix of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.memory import MemoryTracker

#: MemoryTracker label under which cache entries are accounted.
CACHE_MEMORY_LABEL = "historical_cache"


@dataclass(frozen=True)
class CacheConfig:
    """Staleness-bounded caching knobs (the third dependency mode).

    Parameters
    ----------
    tau:
        Staleness bound in epochs.  ``0`` refreshes every epoch (bit-
        identical to no cache), ``inf`` fetches once and serves forever;
        the greedy cost model only *chooses* CACHED when ``tau >= 2``
        makes the amortized cost ``t_c / tau`` strictly cheaper.
    capacity_bytes:
        Optional cap on the cache's share of the worker budget ``S``
        (``None`` = bounded only by ``S`` itself).

    The trainer's staleness-vs-accuracy guard may force a refresh epoch
    when the loss regresses; it is on whenever a config is set.
    """

    tau: float = 4.0
    capacity_bytes: Optional[int] = None

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")
        if self.capacity_bytes is not None and self.capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")

    def strictly_amortizes(self) -> bool:
        """Whether CACHED can ever beat DepComm on comm volume."""
        return self.tau > 1


class CacheBudget:
    """Admits cache entries against the shared per-worker budget ``S``.

    Parameters
    ----------
    tracker:
        The worker's :class:`MemoryTracker` holding ``S``; DepCache
        closures and cache entries both allocate from it.  ``None``
        means no shared budget (the cap below still applies).
    capacity_bytes:
        Cache-local cap within ``S``.
    """

    def __init__(
        self,
        tracker: Optional[MemoryTracker] = None,
        capacity_bytes: Optional[int] = None,
    ):
        self.tracker = tracker
        self.capacity_bytes = capacity_bytes
        self.entries = 0
        self.bytes = 0

    @classmethod
    def for_config(
        cls, config: CacheConfig, tracker: Optional[MemoryTracker] = None
    ) -> "CacheBudget":
        return cls(tracker=tracker, capacity_bytes=config.capacity_bytes)

    def snapshot(self) -> tuple:
        """Capture (entries, bytes) for a later :meth:`restore`.

        Tracker-side allocations are *not* captured here; callers that
        roll back admissions must also restore the tracker's own
        snapshot (see :meth:`MemoryTracker.snapshot`).
        """
        return (self.entries, self.bytes)

    def restore(self, state: tuple) -> None:
        """Roll back to a :meth:`snapshot` taken on this budget."""
        self.entries, self.bytes = int(state[0]), int(state[1])

    def would_admit(self, nbytes: int) -> bool:
        if self.capacity_bytes is not None and self.bytes + nbytes > self.capacity_bytes:
            return False
        if self.tracker is not None and not self.tracker.fits(nbytes):
            return False
        return True

    def admit(self, nbytes: int) -> bool:
        """Reserve one entry of ``nbytes``; False if any bound refuses."""
        if not self.would_admit(nbytes):
            return False
        if self.tracker is not None:
            self.tracker.allocate(nbytes, CACHE_MEMORY_LABEL)
        self.entries += 1
        self.bytes += int(nbytes)
        return True

    def admit_prefix(self, ranked, nbytes: int) -> np.ndarray:
        """Admit ``ranked`` ids in order, ``nbytes`` each, until a bound
        refuses one; the admitted ids, sorted."""
        taken = []
        for u in ranked:
            if not self.admit(nbytes):
                break
            taken.append(int(u))
        return np.asarray(sorted(taken), dtype=np.int64)


def rank_candidates(
    graph, assignment: np.ndarray, worker: int, candidates
) -> np.ndarray:
    """``candidates`` best-first for a cache slot on ``worker``.

    A candidate ranks by how many of the worker's own vertices read it
    (its out-edges into the partition: every one is exercised every
    full-batch epoch), ties broken by id.  The rank decides only *which*
    rows are served stale: every entry of a layer costs the same bytes
    and saves exactly one row's fetch, so the budget alone fixes how
    many are admitted and with it every byte moved.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if len(candidates) == 0:
        return candidates
    src = graph.src[assignment[graph.dst] == worker]
    consumers = np.bincount(src, minlength=graph.num_vertices)
    return candidates[np.lexsort((candidates, -consumers[candidates]))]
