"""Staleness-bounded embedding caching: the third dependency mode.

NeutronStar's Algorithm 4 makes a binary per-vertex choice -- replicate
and recompute (DepCache) or fetch every epoch (DepComm).  This package
adds the middle point on that spectrum: keep a *cached, bounded-
staleness* copy of a remote representation and refresh it every ``tau``
epochs, amortizing the communication cost to ``t_c / tau`` at the price
of slightly stale inputs (exact again after every refresh).

- :mod:`repro.cache.historical` -- the per-layer, epoch-stamped store;
- :mod:`repro.cache.policies` -- admission/eviction rankings;
- :mod:`repro.cache.budget` -- the memory budget shared with DepCache
  closures, plus :class:`CacheConfig`.

The tau/capacity grid behind ``repro cache-sweep`` and
``benchmarks/bench_cache_sweep.py`` is
:func:`repro.sweeps.run_cache_sweep`.

Engines opt in via ``cache_config=CacheConfig(...)``; with no config
every code path is bit-identical to the cache-free implementation.
"""

from repro.cache.budget import CACHE_MEMORY_LABEL, CacheBudget, CacheConfig
from repro.cache.historical import CacheCounters, HistoricalEmbeddingCache
from repro.cache.policies import (
    AdmissionPolicy,
    ExpectationPolicy,
    LRUPolicy,
    StaticDegreeTopK,
    get_policy,
    make_policy,
)

__all__ = [
    "CACHE_MEMORY_LABEL",
    "AdmissionPolicy",
    "CacheBudget",
    "CacheConfig",
    "CacheCounters",
    "ExpectationPolicy",
    "HistoricalEmbeddingCache",
    "LRUPolicy",
    "StaticDegreeTopK",
    "get_policy",
    "make_policy",
]
