"""Engine plans: the per-worker, per-layer dependency decisions.

An :class:`EnginePlan` is what the dependency-management strategies
produce (Section 3): for every layer and worker, which vertices are
computed locally, which remote dependencies are fetched over the wire
(``C_i^l``), which are served from the staleness-bounded historical
cache (``H_i^l``), and which are recomputed from cached subtrees
(``R_i^l``).  :func:`build_engine_plan` derives the plan top-down from
``engine.decide_dependencies`` -- the *only* method the strategies
implement -- and :mod:`repro.execution.program` then compiles the plan
into the explicit per-layer dataflow program the executor, accountant,
and pass pipeline consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cache.historical import HistoricalEmbeddingCache
from repro.cluster.memory import MemoryTracker
from repro.core.blocks import LayerBlock, build_block
from repro.core.mirror import MirrorExchange


@dataclass
class EpochReport:
    """What one training epoch produced (modeled time + real loss).

    ``comm_bytes`` is the forward mirror-exchange volume actually moved
    this epoch (refresh traffic included, cache-served traffic not).
    The cache fields stay zero unless staleness-bounded caching is on:
    ``cache_hits`` / ``cache_misses`` count entries served stale versus
    (re-)fetched, ``refresh_bytes`` the re-fetch volume, and
    ``comm_saved_bytes`` what a cache-free run would additionally have
    sent.
    """

    epoch: int
    epoch_time_s: float
    loss: float
    comm_bytes: int
    forward_time_s: float
    backward_time_s: float
    allreduce_time_s: float
    cache_hits: int = 0
    cache_misses: int = 0
    refresh_bytes: int = 0
    comm_saved_bytes: int = 0
    cache_refreshed: bool = False


@dataclass
class EnginePlan:
    """Per-worker, per-layer execution plan (built once, reused)."""

    blocks: List[List[LayerBlock]]  # [l-1][worker]
    comm_ids: List[List[np.ndarray]]  # [l-1][worker] -> received ids
    exchanges: List[MirrorExchange]  # [l-1]
    cached_deps: List[List[np.ndarray]]  # [l-1][worker] -> R_i^l
    preprocessing_s: float = 0.0
    device_memory: List[MemoryTracker] = field(default_factory=list)
    host_memory: List[MemoryTracker] = field(default_factory=list)
    # Staleness-bounded CACHED sets H_i^l and their refresh exchange
    # (charged only on refresh epochs); empty without a cache config.
    stale_deps: List[List[np.ndarray]] = field(default_factory=list)
    refresh_exchanges: List[MirrorExchange] = field(default_factory=list)
    # Fourth strategy (NeutronTP): tp_layers[l-1] marks layer ``l`` as
    # tensor-parallel -- full-graph aggregation on feature slices with
    # slice-transpose all-to-alls instead of a mirror exchange.  Empty
    # means no TP anywhere (every pre-existing plan).
    tp_layers: List[bool] = field(default_factory=list)

    def is_tp_layer(self, l: int) -> bool:
        """Whether layer ``l`` (1-based) runs tensor-parallel."""
        return bool(self.tp_layers) and self.tp_layers[l - 1]

    def total_stale_vertices(self) -> int:
        return sum(ex.total_vertices for ex in self.refresh_exchanges)

    def cache_ratio(self) -> float:
        cached = sum(len(r) for per_l in self.cached_deps for r in per_l)
        comm = sum(len(c) for per_l in self.comm_ids for c in per_l)
        stale = sum(len(h) for per_l in self.stale_deps for h in per_l)
        total = cached + comm + stale
        return cached / total if total else 1.0


def _members(ids: np.ndarray, members: np.ndarray, num_vertices: int) -> np.ndarray:
    """Boolean mask over ``ids``: which of them are in ``members``."""
    mask = np.zeros(num_vertices, dtype=bool)
    mask[members] = True
    return mask[ids]


def build_engine_plan(engine) -> EnginePlan:
    """Derive the :class:`EnginePlan` from the engine's R/C/H decisions.

    A dependency in C is received, a dependency in H is served from the
    historical cache (received only on refresh epochs), a dependency in
    R (or any remote input outside the decided set, i.e. cached-subtree
    interior) is computed locally.
    """
    m = engine.cluster.num_workers
    L = engine.num_layers
    graph = engine.graph

    cached_all: List[List[np.ndarray]] = [[] for _ in range(L)]
    decisions: List[Dict[int, np.ndarray]] = [dict() for _ in range(L)]
    stale_decisions: List[Dict[int, np.ndarray]] = [dict() for _ in range(L)]
    preprocessing = 0.0
    empty = np.empty(0, dtype=np.int64)
    for w in range(m):
        result = engine.decide_dependencies(w)
        if len(result) == 4:
            cached, communicated, stale, prep_s = result
        else:
            cached, communicated, prep_s = result
            stale = [empty] * L
        preprocessing = max(preprocessing, prep_s)  # workers run in parallel
        for l in range(L):
            cached_all[l].append(cached[l])
            decisions[l][w] = communicated[l]
            stale_decisions[l][w] = stale[l]

    # Engines exposing ``_choose_tp_layers`` (the four-way greedy, the
    # pure-TP engine) may flip whole layers to tensor parallelism.
    chooser = getattr(engine, "_choose_tp_layers", None)
    tp_layers = [bool(f) for f in chooser()] if chooser is not None else []
    if tp_layers and len(tp_layers) != L:
        raise ValueError(
            f"_choose_tp_layers returned {len(tp_layers)} flags "
            f"for {L} layers"
        )
    any_tp = any(tp_layers)

    comm_ids: List[List[np.ndarray]] = [[None] * m for _ in range(L)]
    stale_ids: List[List[np.ndarray]] = [[None] * m for _ in range(L)]
    blocks: List[List[LayerBlock]] = [[None] * m for _ in range(L)]
    all_vertices = np.arange(graph.num_vertices, dtype=np.int64)
    for w in range(m):
        owned = engine.partitioning.part(w)
        need = owned
        for l in range(L, 0, -1):
            if any_tp and tp_layers[l - 1]:
                # Tensor-parallel layer: every worker aggregates the
                # full edge set on its feature slice, then the unslice
                # transpose leaves full-width outputs at their owners
                # only -- so the layer needs no dependency decisions
                # and resets the downward closure to the owned set.
                # One memoised full-graph block serves every worker.
                blocks[l - 1][w] = build_block(graph, all_vertices)
                comm_ids[l - 1][w] = empty
                stale_ids[l - 1][w] = empty
                need = owned
                continue
            block = build_block(graph, need)
            blocks[l - 1][w] = block
            remote_inputs = block.input_vertices[
                engine.assignment[block.input_vertices] != w
            ]
            # ``remote_inputs`` is sorted unique, so membership-mask
            # splits give the same sorted arrays as the ``intersect1d``
            # / ``setdiff1d`` / ``union1d`` chain without its hashing.
            is_stale = _members(
                remote_inputs, stale_decisions[l - 1][w], graph.num_vertices
            )
            if any_tp and l >= 2 and tp_layers[l - 2]:
                # The input layer is tensor-parallel: its outputs exist
                # full-width only at their owners, so recompute is
                # impossible and every remote input not served stale is
                # fetched, regardless of the per-vertex decisions.
                is_comm = ~is_stale
            else:
                is_comm = _members(
                    remote_inputs, decisions[l - 1][w], graph.num_vertices
                )
            comm_ids[l - 1][w] = remote_inputs[is_comm]
            stale_ids[l - 1][w] = remote_inputs[is_stale]
            if l > 1:
                needed = np.zeros(graph.num_vertices, dtype=bool)
                needed[owned] = True
                needed[remote_inputs[~(is_comm | is_stale)]] = True
                need = np.flatnonzero(needed)

    exchanges = [
        MirrorExchange(engine.assignment, comm_ids[l], m) for l in range(L)
    ]
    refresh_exchanges = [
        MirrorExchange(engine.assignment, stale_ids[l], m) for l in range(L)
    ]
    return EnginePlan(
        blocks=blocks,
        comm_ids=comm_ids,
        exchanges=exchanges,
        cached_deps=cached_all,
        preprocessing_s=preprocessing,
        stale_deps=stale_ids,
        refresh_exchanges=refresh_exchanges,
        tp_layers=tp_layers,
    )


def build_historical_caches(engine, plan: EnginePlan):
    """One per-worker bounded-staleness store, sized by the plan."""
    if engine.cache_config is None or plan.total_stale_vertices() == 0:
        return None
    return [
        HistoricalEmbeddingCache(engine.num_layers, engine.cache_config.tau)
        for _ in range(engine.cluster.num_workers)
    ]
