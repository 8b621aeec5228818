"""DepCache engine (Algorithm 2): cache every remote dependency.

Every worker pulls its vertices' full L-hop in-neighborhood closure to
local storage before training and recomputes all dependent
representations each epoch.  No per-epoch communication (except the
parameter all-reduce), maximal redundant computation -- the classic
data-parallel adaptation used by AliGraph/Euler/AGL/DistDGL (without
sampling here; see :mod:`repro.engines.sampling` for the sampled
variant).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.engines.base import BaseEngine
from repro.graph.khop import dependency_layers


class DepCacheEngine(BaseEngine):
    """All remote dependencies cached (R = D, C = empty)."""

    name = "depcache"
    chunked_execution = True  # NeutronStar codebase streams chunks
    tape_location = "host"

    def decide_dependencies(
        self, worker: int
    ) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray], float]:
        owned = self.partitioning.part(worker)
        deps = dependency_layers(self.graph, owned, self.num_layers)
        cached = [d.copy() for d in deps]
        empty = [np.empty(0, dtype=np.int64) for _ in deps]
        return cached, empty, list(empty), 0.0
