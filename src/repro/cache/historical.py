"""Staleness-bounded historical embedding storage.

A :class:`HistoricalEmbeddingCache` keeps, per layer, the last fetched
copy of remote vertices' representations together with the epoch at
which each entry was fetched.  An entry is *fresh* at epoch ``e`` while
``e - stamp < tau``; expired entries are transparent (a lookup reports
them missing), so callers fall back to an exact fetch -- the
"refresh on expiry, exact value on miss" contract.

``tau`` semantics:

- ``tau = 0`` -- nothing is ever fresh: every epoch re-fetches, which
  makes a cache-enabled run bit-identical to a cache-free one;
- ``tau = 1`` -- an entry is fresh only in the epoch it was stored, so
  steady-state traffic equals the uncached engine's (no amortization);
- ``tau >= 2`` -- an entry stored at epoch ``e`` serves epochs
  ``e .. e + tau - 1``, amortizing one fetch over ``tau`` epochs;
- ``tau = inf`` -- fetch once, serve forever (DepCache-like volume).

Nothing is evicted at run time: what may be stored is decided when the
plan admits entries against the worker budget ``S``
(:class:`repro.cache.budget.CacheBudget`), so the store itself is
unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np


@dataclass
class CacheCounters:
    """Lifetime accounting of one cache instance."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0  # lookups that found an entry, but stale
    stores: int = 0
    evictions: int = 0  # no runtime eviction: stays 0, kept in the record
    resident_bytes: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses + self.expirations
        return self.hits / total if total else 0.0


class _Entry(NamedTuple):
    row: np.ndarray
    stamp: int


def _listed(values) -> list:
    """``values`` (an array or a sequence) as a list of Python scalars."""
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def _per_id(epoch, count: int) -> list:
    """``epoch`` for each of ``count`` ids: one given per id, or one for all."""
    if isinstance(epoch, (np.ndarray, list, tuple)):
        return _listed(epoch)
    return [epoch] * count


class HistoricalEmbeddingCache:
    """Per-layer bounded-staleness store of remote representations.

    Parameters
    ----------
    num_layers:
        Layers ``1..num_layers`` each get their own id space (an entry
        for layer ``l`` holds that vertex's ``h^{l-1}`` row).
    tau:
        Staleness bound in epochs (``float('inf')`` allowed).
    """

    def __init__(self, num_layers: int, tau: float):
        if num_layers < 1:
            raise ValueError("num_layers must be positive")
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self.num_layers = num_layers
        self.tau = tau
        self._entries: Dict[Tuple[int, int], _Entry] = {}
        self.counters = CacheCounters()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        return self.counters.resident_bytes

    def _check_layer(self, layer: int) -> None:
        if not 1 <= layer <= self.num_layers:
            raise ValueError(f"layer must be in 1..{self.num_layers}, got {layer}")

    # ------------------------------------------------------------------
    def store(self, layer: int, ids: np.ndarray, rows: np.ndarray, epoch) -> None:
        """Insert/refresh ``rows`` (one per id) stamped with ``epoch``
        (one for all ids, or one per id)."""
        self._check_layer(layer)
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.asarray(rows)
        if len(ids) != len(rows):
            raise ValueError(f"{len(ids)} ids but {len(rows)} rows")
        counters = self.counters
        for u, row, e in zip(ids.tolist(), rows, _per_id(epoch, len(ids))):
            key = (layer, u)
            old = self._entries.pop(key, None)
            if old is not None:
                counters.resident_bytes -= old.row.nbytes
            row = np.array(row, copy=True)
            self._entries[key] = _Entry(row, int(e))
            counters.resident_bytes += row.nbytes
            counters.stores += 1

    def lookup(
        self, layer: int, ids: np.ndarray, epoch
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Fresh entries for ``ids`` at ``epoch`` (one for all ids, or
        one per id).

        Returns ``(fresh_mask, rows)`` where ``rows`` has one row per
        fresh id (``None`` when nothing is fresh).  Expired or missing
        ids are the caller's responsibility to fetch exactly.
        """
        self._check_layer(layer)
        ids = _listed(ids)
        fresh = [False] * len(ids)
        rows = []
        counters = self.counters
        for i, (u, e) in enumerate(zip(ids, _per_id(epoch, len(ids)))):
            entry = self._entries.get((layer, u))
            if entry is None:
                counters.misses += 1
                continue
            if not (e - entry.stamp < self.tau):
                counters.expirations += 1
                continue
            fresh[i] = True
            rows.append(entry.row)
            counters.hits += 1
        # np.array stacks equal-width rows as np.stack does, at less overhead.
        return np.array(fresh, dtype=bool), (np.array(rows) if rows else None)

    def peek(
        self, layer: int, ids: np.ndarray
    ) -> Tuple[List[Optional[np.ndarray]], List[Optional[int]]]:
        """Every stored row of ``ids`` and its stamp, regardless of
        freshness (``None`` where absent).

        Bypasses the staleness bound and the hit/miss counters: the
        serving probe reads stamps through it, and answers from an
        *expired* entry when the owner is dead ("stale-if-error").
        """
        entries = [self._entries.get((layer, u)) for u in _listed(ids)]
        return (
            [None if e is None else e.row for e in entries],
            [None if e is None else e.stamp for e in entries],
        )

    def invalidate(self) -> None:
        """Drop every entry (e.g. after a crash re-provision)."""
        self._entries.clear()
        self.counters.resident_bytes = 0

    def breakdown(self) -> Dict[int, int]:
        """Entry count per layer."""
        out: Dict[int, int] = {}
        for layer, _ in self._entries:
            out[layer] = out.get(layer, 0) + 1
        return out
