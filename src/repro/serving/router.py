"""Popularity-aware request routing across replicated serving groups.

The fleet (:mod:`repro.serving.fleet`) replicates the whole serving
plane: every replica holds the same partitions and can answer any
request, so routing is purely a locality/load decision.  The router
combines two deterministic mechanisms:

- **Rendezvous (highest-random-weight) hashing** as the base policy:
  each (vertex, replica) pair hashes to a 64-bit score through
  :func:`repro.utils.rng.hashed_uint64` and the healthy replica with
  the highest score wins.  Removing a replica only remaps the vertices
  it owned; adding one steals an even ``1/n`` slice -- the classic
  consistent-hashing property, with no ring state to keep.
- **Popularity pinning**: once a vertex has been routed ``pin_after``
  times it is *pinned* to the replica that has been serving it, so the
  Zipf-hot head of the workload keeps hitting the replica whose
  :class:`~repro.cache.historical.HistoricalEmbeddingCache` already
  holds its closure.  Pins follow failover: a pin to a dead replica is
  dropped and re-learned on the survivors.
- **Hot-spread mode**: after a scale-out the hotspot that triggered it
  is usually a handful of pinned vertices saturating one replica.
  :meth:`PopularityRouter.enable_spread` clears the pin table and
  from then on spreads requests
  for hot vertices (observed count >= ``pin_after``) across all healthy
  replicas, keyed by ``req_id`` so the spread is deterministic and
  stateless.

All hash draws route through :mod:`repro.utils.rng` keyed streams, so
routing is a pure function of ``(seed, request stream, health events)``
-- the property the fleet's bit-identity and replay tests rely on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serving.workload import Request
from repro.utils.rng import hashed_uint64


class PopularityRouter:
    """Deterministic popularity-aware router over replica ids."""

    def __init__(self, seed: int = 0, pin_after: int = 3):
        if pin_after < 1:
            raise ValueError("pin_after must be >= 1")
        self.seed = int(seed)
        self.pin_after = int(pin_after)
        self.spread_hot = False
        #: observed request count per vertex (popularity estimate)
        self.counts: Dict[int, int] = {}
        #: vertex -> replica pin (cache affinity for the hot head)
        self.pins: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def rendezvous(self, vertex: int, healthy: Sequence[int]) -> int:
        """Highest-random-weight choice among the healthy replicas."""
        if not healthy:
            raise ValueError("no healthy replica to route to")
        ids = np.array([int(vertex)], dtype=np.int64)
        best, best_score = healthy[0], -1
        for replica in healthy:
            score = int(hashed_uint64(
                self.seed, "rendezvous", int(replica), ids=ids
            )[0])
            if score > best_score:
                best, best_score = int(replica), score
        return best

    def alternate(self, vertex: int, primary: int,
                  healthy: Sequence[int]) -> Optional[int]:
        """Second-highest rendezvous choice (hedge / failover target)."""
        others = [r for r in healthy if r != primary]
        if not others:
            return None
        return self.rendezvous(vertex, others)

    # ------------------------------------------------------------------
    def route(self, request: Request, healthy: Sequence[int]) -> int:
        """Pick the replica for one request and update popularity state."""
        v = int(request.vertex)
        count = self.counts.get(v, 0) + 1
        self.counts[v] = count

        if self.spread_hot and count > self.pin_after:
            # Hot vertex under spread mode: deterministic per-request
            # scatter across every healthy replica.
            ids = np.array([int(request.req_id)], dtype=np.int64)
            idx = int(hashed_uint64(self.seed, "spread", ids=ids)[0]
                      % len(healthy))
            return int(sorted(healthy)[idx])

        pinned = self.pins.get(v)
        if pinned is not None and pinned in healthy:
            return pinned
        choice = self.rendezvous(v, healthy)
        if pinned is not None and pinned not in healthy:
            del self.pins[v]  # dead pin: re-learn on the survivors
        if not self.spread_hot and count >= self.pin_after:
            self.pins[v] = choice
        return choice

    def route_segment(
        self, requests: Sequence[Request], healthy: Sequence[int]
    ) -> Dict[int, List[Request]]:
        """Route a whole segment; returns replica -> request list."""
        out: Dict[int, List[Request]] = {}
        for r in requests:
            out.setdefault(self.route(r, healthy), []).append(r)
        return out

    # ------------------------------------------------------------------
    def drop_replica(self, replica: int) -> None:
        """Forget every pin to a replica that left the fleet."""
        self.pins = {v: r for v, r in self.pins.items() if r != replica}

    def enable_spread(self) -> None:
        """Switch to hot-spread mode (scale-out mitigation): clear the
        pin table so rendezvous re-shards the cold tail onto the new
        replica, and scatter the hot head across every replica."""
        self.spread_hot = True
        self.pins.clear()


__all__ = ["PopularityRouter"]
