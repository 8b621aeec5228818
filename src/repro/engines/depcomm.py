"""DepComm engine (Algorithm 3): communicate every remote dependency.

Workers compute only their own vertices; every layer's remote inputs
are pulled from their masters (forward) and partial gradients are
pushed back (backward), via the master-mirror exchange.  No redundant
computation, per-layer communication every epoch -- the strategy of
ROC/DistGNN/Dorylus (here with NeutronStar's chunked, ring-scheduled,
overlapped communication unless the options say otherwise).

With a :class:`repro.cache.CacheConfig`, an explicit cache mode is
layered on top: :func:`repro.cache.budget.rank_candidates` ranks each
layer's remote dependencies and the :class:`repro.cache.CacheBudget` admits a prefix
into the staleness-bounded CACHED set (served from the historical
cache, re-fetched every ``tau`` epochs).  Unlike the hybrid greedy --
which only picks CACHED when it strictly amortizes -- this user-driven
mode admits regardless of ``tau``: at ``tau = 0`` the run stays
bit-identical to plain DepComm, which is the determinism contract the
cache subsystem is tested against.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.cache.budget import CacheBudget, rank_candidates
from repro.engines.base import BaseEngine
from repro.graph.khop import dependency_layers


class DepCommEngine(BaseEngine):
    """All remote dependencies communicated (R = empty, C = D)."""

    name = "depcomm"
    chunked_execution = True
    tape_location = "host"

    def decide_dependencies(
        self, worker: int
    ) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray], float]:
        owned = self.partitioning.part(worker)
        deps = dependency_layers(self.graph, owned, self.num_layers)
        cached = [np.empty(0, dtype=np.int64) for _ in deps]
        stale = [np.empty(0, dtype=np.int64) for _ in deps]
        communicated = [d.copy() for d in deps]
        if self.cache_config is not None:
            budget = CacheBudget.for_config(self.cache_config)
            assignment = self.partitioning.assignment
            for l in range(1, self.num_layers + 1):
                ranked = rank_candidates(
                    self.graph, assignment, worker, deps[l - 1]
                )
                stale[l - 1] = budget.admit_prefix(ranked, self.dims[l - 1] * 4)
                communicated[l - 1] = np.setdiff1d(deps[l - 1], stale[l - 1])
        return cached, communicated, stale, 0.0
