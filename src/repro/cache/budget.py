"""Cache configuration and the budget shared with DepCache closures.

The paper's Algorithm 4 spends one per-worker memory budget ``S`` on
replicated dependency subtrees.  The caching subsystem draws from the
*same* ``S`` (via :class:`repro.cluster.memory.MemoryTracker`): every
byte granted to a historical-embedding entry is a byte the greedy can
no longer spend on a closure, and vice versa.  ``CacheBudget`` is the
gatekeeper for the cache's side of that split, with an optional
``capacity_bytes`` / ``capacity_entries`` cap on the cache's share.
"""

from __future__ import annotations

import math
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
    policy:
        Admission policy name (``degree`` | ``lru`` | ``expectation``).
    capacity_bytes / capacity_entries:
        Optional cap on the cache's share of the worker budget ``S``
        (``None`` = bounded only by ``S`` itself).
    fanout:
        Expected neighborhood-expansion fanout for the expectation
        policy (``None`` = full-batch exact access counts).
    refresh_on_regression:
        Lets the trainer's staleness-vs-accuracy guard force a refresh
        epoch when the loss regresses.
    """

    tau: float = 4.0
    policy: str = "expectation"
    capacity_bytes: Optional[int] = None
    capacity_entries: Optional[int] = None
    fanout: Optional[int] = None
    refresh_on_regression: bool = True

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")
        if self.capacity_bytes is not None and self.capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if self.capacity_entries is not None and self.capacity_entries < 0:
            raise ValueError("capacity_entries must be non-negative")

    @property
    def amortization(self) -> float:
        """Fetches per epoch per entry in steady state (``1/tau``-ish)."""
        if self.tau <= 1:
            return 1.0
        if math.isinf(self.tau):
            return 0.0
        return 1.0 / float(self.tau)

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
        means no shared budget (the caps below still apply).
    capacity_bytes / capacity_entries:
        Cache-local caps within ``S``.
    """

    def __init__(
        self,
        tracker: Optional[MemoryTracker] = None,
        capacity_bytes: Optional[int] = None,
        capacity_entries: Optional[int] = None,
    ):
        self.tracker = tracker
        self.capacity_bytes = capacity_bytes
        self.capacity_entries = capacity_entries
        self.entries = 0
        self.bytes = 0

    @classmethod
    def for_config(
        cls, config: CacheConfig, tracker: Optional[MemoryTracker] = None
    ) -> "CacheBudget":
        return cls(
            tracker=tracker,
            capacity_bytes=config.capacity_bytes,
            capacity_entries=config.capacity_entries,
        )

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
        if self.capacity_entries is not None and self.entries >= self.capacity_entries:
            return False
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

    def release_all(self) -> None:
        if self.tracker is not None:
            self.tracker.free_all(CACHE_MEMORY_LABEL)
        self.entries = 0
        self.bytes = 0
