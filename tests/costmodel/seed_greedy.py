"""The scalar Algorithm 4, kept as the reference the batched one must match.

``seed_t_r`` / ``seed_commit`` are the one-root subtree walk and
``seed_partition_dependencies`` the per-dependency heap greedy exactly
as they stood before the probes were batched (one ``t_r`` call per
initial measurement and per pop).  The differential tests compare the
batched probes and ``partition_dependencies`` with them field for
field, and ``benchmarks/bench_hotpath.py`` installs the greedy as its
reference mode's "before" side.
"""

import heapq
import math
from typing import Dict, List, Optional

import numpy as np

from repro.cache.budget import CacheBudget
from repro.cluster.memory import MemoryTracker
from repro.costmodel.costs import DependencyCostModel, SubtreeMeasurement
from repro.costmodel.partitioner import (
    _BACKWARD_COMM,
    _OVERLAP_DISCOUNT,
    _SECONDS_PER_EDGE_VISIT,
    _SECONDS_PER_EVALUATION,
    CLOSURE_MEMORY_LABEL,
    DependencyPartition,
    _select_stale_cached,
)
from repro.graph.khop import dependency_layers


def seed_t_r(self, u, layer):
    """Eq. 1 for one root: the per-level ``np.unique`` frontier walk."""
    csc = self.graph.csc
    cost = 0.0
    new_edge_count = 0
    memory = 0
    new_vertices = []
    frontier = np.asarray([u], dtype=np.int64)
    for k in range(layer - 1, 0, -1):
        rep = self.replicated[k]
        fresh = frontier[~self.owned_mask[frontier] & ~rep[frontier]]
        new_vertices.append(fresh)
        if len(fresh):
            _, sources, eids = csc.select(fresh)
            edge_count = len(eids)
            cost += self.mu * (
                len(fresh) * self.constants.vertex_cost(k)
                + edge_count * self.constants.edge_cost(k)
            )
            new_edge_count += edge_count
            memory += len(fresh) * self.dims[k] * 4 + edge_count * 12
            frontier = np.unique(sources)
        else:
            frontier = np.empty(0, dtype=np.int64)
        if len(frontier) == 0:
            break
    rep0 = self.replicated[0]
    fresh0 = (
        frontier[~self.owned_mask[frontier] & ~rep0[frontier]]
        if len(frontier)
        else frontier
    )
    new_vertices.append(fresh0)
    memory += len(fresh0) * self.dims[0] * 4
    return SubtreeMeasurement(
        cost_s=cost,
        new_vertices=new_vertices,
        new_edge_count=new_edge_count,
        memory_bytes=memory,
    )


def seed_commit(self, u, layer, measurement):
    levels = list(range(layer - 1, 0, -1)) + [0]
    for k, fresh in zip(levels, measurement.new_vertices):
        if len(fresh):
            self.replicated[k][fresh] = True


def seed_partition_dependencies(
    graph,
    partitioning,
    worker,
    dims,
    constants,
    memory_limit_bytes=None,
    mu=0.8,
    force_cache_fraction=None,
    rng=None,
    cache=None,
    warm_start=None,
    tp=None,
):
    num_layers = len(dims) - 1
    owned = partitioning.part(worker)
    owned_mask = np.zeros(graph.num_vertices, dtype=bool)
    owned_mask[owned] = True
    deps = dependency_layers(graph, owned, num_layers)

    cost_model = DependencyCostModel(
        graph, dims, constants, owned_mask, mu=mu, tp=tp
    )
    cached: List[np.ndarray] = []
    communicated: List[np.ndarray] = []
    stale_cached: List[np.ndarray] = []
    initial_costs: List[Dict[int, float]] = []
    tp_layers: List[bool] = []
    tp_cost_s: List[float] = []
    three_way_cost_s: List[float] = []
    tracker = (
        MemoryTracker(worker, max(1, memory_limit_bytes))
        if memory_limit_bytes is not None
        else None
    )
    cache_budget = (
        CacheBudget.for_config(cache, tracker=tracker) if cache is not None else None
    )
    modeled_seconds = 0.0
    evaluations = 0
    budget_exhausted = False

    if force_cache_fraction is not None:
        total_deps = sum(len(d) for d in deps)
        quota_remaining = int(round(force_cache_fraction * total_deps))
    else:
        quota_remaining = None

    tp_enabled = tp is not None and quota_remaining is None
    tp_below = False

    for l in range(1, num_layers + 1):
        layer_deps = deps[l - 1]
        t_c = cost_model.t_c(l)
        warm_costs: Optional[Dict[int, float]] = None
        if warm_start is not None and l - 1 < len(warm_start.initial_costs):
            warm_costs = warm_start.initial_costs[l - 1]
        layer_costs: Dict[int, float] = {}
        layer_cached_cost = 0.0
        snapshot = None
        if tp_enabled:
            snapshot = (
                [rep.copy() for rep in cost_model.replicated],
                tracker.snapshot() if tracker is not None else None,
                cache_budget.snapshot() if cache_budget is not None else None,
                budget_exhausted,
            )
        if budget_exhausted or len(layer_deps) == 0 or tp_below:
            cached.append(np.empty(0, dtype=np.int64))
            layer_cached = []
        else:
            heap = []
            for u in layer_deps:
                u = int(u)
                if warm_costs is not None and u in warm_costs:
                    cost = warm_costs[u]
                else:
                    measurement = seed_t_r(cost_model, u, l)
                    evaluations += 1
                    modeled_seconds += (
                        _SECONDS_PER_EVALUATION
                        + measurement.new_edge_count * _SECONDS_PER_EDGE_VISIT
                    )
                    cost = measurement.cost_s
                layer_costs[u] = cost
                heapq.heappush(heap, (cost, u))

            layer_cached = []
            while heap:
                _, u = heapq.heappop(heap)
                measurement = seed_t_r(cost_model, u, l)
                evaluations += 1
                modeled_seconds += (
                    _SECONDS_PER_EVALUATION
                    + measurement.new_edge_count * _SECONDS_PER_EDGE_VISIT
                )
                if quota_remaining is not None:
                    should_cache = quota_remaining > 0
                    if not should_cache:
                        break
                else:
                    should_cache = measurement.cost_s < t_c
                    if not should_cache:
                        break
                if tracker is not None and not tracker.try_allocate(
                    measurement.memory_bytes, CLOSURE_MEMORY_LABEL
                ):
                    budget_exhausted = True
                    break
                layer_cached.append(u)
                layer_cached_cost += measurement.cost_s
                if quota_remaining is not None:
                    quota_remaining -= 1
                seed_commit(cost_model, u, l, measurement)

            cached.append(np.asarray(sorted(layer_cached), dtype=np.int64))
        initial_costs.append(layer_costs)
        remaining = np.setdiff1d(layer_deps, cached[-1])
        if cache_budget is not None:
            stale = _select_stale_cached(
                remaining, l, cost_model, cache, cache_budget,
                graph, partitioning, worker,
            )
        else:
            stale = np.empty(0, dtype=np.int64)
        stale_cached.append(stale)
        communicated.append(np.setdiff1d(remaining, stale))

        tp_cost = cost_model.t_tp(l) if tp_enabled else math.inf
        stale_cost = (
            len(stale) * cost_model.t_cached(l, cache.tau)
            if cache is not None
            else 0.0
        )
        comm_rows = len(communicated[-1])
        bulk_comm = 0.0
        if comm_rows:
            bulk_comm = _BACKWARD_COMM * (
                comm_rows * dims[l - 1] * 4 * constants.t_c_byte
                + (partitioning.num_parts - 1) * constants.t_msg
            )
        three_way = (
            layer_cached_cost + stale_cost + _OVERLAP_DISCOUNT * bulk_comm
        )
        tp_cost_s.append(tp_cost)
        three_way_cost_s.append(three_way)
        flip = tp_enabled and len(layer_deps) > 0 and tp_cost < three_way
        tp_layers.append(flip)
        if flip:
            reps, tracker_state, cache_state, prior_exhausted = snapshot
            cost_model.replicated = reps
            if tracker is not None and tracker_state is not None:
                tracker.restore(tracker_state)
            if cache_budget is not None and cache_state is not None:
                cache_budget.restore(cache_state)
            budget_exhausted = prior_exhausted
            cached[-1] = np.empty(0, dtype=np.int64)
            stale_cached[-1] = np.empty(0, dtype=np.int64)
            communicated[-1] = np.sort(
                np.asarray(layer_deps, dtype=np.int64)
            )
            tp_below = True

    closure_bytes = 0
    cache_bytes = 0
    if tracker is not None:
        breakdown = tracker.breakdown()
        closure_bytes = breakdown.get(CLOSURE_MEMORY_LABEL, 0)
    if cache_budget is not None:
        cache_bytes = cache_budget.bytes
    return DependencyPartition(
        worker=worker,
        cached=cached,
        communicated=communicated,
        memory_bytes=closure_bytes,
        modeled_seconds=modeled_seconds,
        measured_evaluations=evaluations,
        stale_cached=stale_cached,
        cache_bytes=cache_bytes,
        initial_costs=initial_costs,
        tp_layers=tp_layers,
        tp_cost_s=tp_cost_s,
        three_way_cost_s=three_way_cost_s,
    )
