"""Algorithm 4: greedy partitioning of dependencies into R (cache) / C (comm).

For each worker and each layer, every remote dependency is scored with
its redundant-computation cost ``t_r`` (Eq. 1) and communication cost
``t_c`` (Eq. 2); dependencies are greedily cached cheapest-first while
``t_r < t_c`` and the memory budget allows, everything else is
communicated.  The per-worker passes are independent (the paper runs
them in parallel), and the whole partitioning runs once before training
(Table 3's "Preprocessing" row).

With a :class:`repro.cache.CacheConfig`, a third outcome joins the
binary choice: dependencies that are neither worth replicating
(``t_r >= t_c``) nor worth fetching every epoch become ``CACHED`` --
served from a staleness-bounded historical-embedding cache and
re-fetched every ``tau`` epochs, at amortized cost ``t_c / tau``
(:meth:`DependencyCostModel.t_cached`).  CACHED is only ever chosen
when it is *strictly* cheaper than DepComm (``tau >= 2``) and the
candidate's place in :func:`repro.cache.budget.rank_candidates` fits
the worker's remaining share of the memory budget ``S``, which
replicated closures and cache entries draw from jointly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.budget import CacheBudget, CacheConfig, rank_candidates
from repro.cluster.memory import MemoryTracker
from repro.costmodel.costs import DependencyCostModel, TensorParallelCostInputs
from repro.costmodel.probe import _BACKWARD_COMM, ProbeResult
from repro.graph.graph import Graph
from repro.graph.khop import dependency_layers
from repro.partition.base import Partitioning

#: MemoryTracker label for replicated (DepCache) closures.
CLOSURE_MEMORY_LABEL = "depcache_closure"


@dataclass
class DependencyPartition:
    """Algorithm 4's output for one worker.

    ``cached[l-1]`` / ``communicated[l-1]`` are the global vertex ids of
    ``R_i^l`` / ``C_i^l`` for layers ``l = 1..L``; ``stale_cached[l-1]``
    is the CACHED set ``H_i^l`` (empty unless a cache config was given).
    """

    worker: int
    cached: List[np.ndarray]
    communicated: List[np.ndarray]
    memory_bytes: int = 0
    modeled_seconds: float = 0.0  # modeled preprocessing time
    measured_evaluations: int = 0
    stale_cached: List[np.ndarray] = field(default_factory=list)
    cache_bytes: int = 0
    # Per-layer ``(ids, t_r seconds)`` arrays that seeded the greedy's
    # pop order (``ids`` the layer's sorted dependencies, empty where the
    # layer was not priced); a later run passes this back as
    # ``warm_start`` to skip the initial measurement sweep (lines 5-7)
    # when re-planning online.
    initial_costs: List[Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=list
    )
    # Four-way extension: this worker's per-layer tensor-parallel vote
    # and both sides of the comparison (the engine aggregates the costs
    # across workers before flipping a layer for real, so a flipped
    # layer here still records ``communicated = all deps`` as the
    # fallback if the global vote disagrees).
    tp_layers: List[bool] = field(default_factory=list)
    tp_cost_s: List[float] = field(default_factory=list)
    three_way_cost_s: List[float] = field(default_factory=list)

    def _total(self) -> int:
        return (
            sum(len(r) for r in self.cached)
            + sum(len(c) for c in self.communicated)
            + sum(len(h) for h in self.stale_cached)
        )

    def cache_ratio(self) -> float:
        total = self._total()
        return sum(len(r) for r in self.cached) / total if total else 1.0


# Modeled cost of one subtree measurement during preprocessing: a BFS
# visit is a few memory accesses per edge on the CPU.
_SECONDS_PER_EDGE_VISIT = 4.0e-8
_SECONDS_PER_EVALUATION = 1.5e-6

# Share of the per-vertex exchange's receive time that survives overlap:
# chunked execution starts aggregating as chunks land, hiding roughly
# half the wire time under compute (the scheduler's overlap pipeline).
# The TP slice transposes get no discount -- they are latency-dominated
# and must complete before the layer's dense work can start.
_OVERLAP_DISCOUNT = 0.5


# The pop loop measures the (cost, vertex) order in blocks of this many
# roots, each block this many times the one before.
_FIRST_POP_BLOCK = 64
_POP_BLOCK_GROWTH = 4


def _warm_costs(
    warm_costs: Optional[Tuple[np.ndarray, np.ndarray]],
    layer_deps: np.ndarray,
    num_vertices: int,
):
    """Prior ``t_r`` per dependency and the mask of those without one."""
    costs = np.zeros(len(layer_deps), dtype=np.float64)
    unknown = np.ones(len(layer_deps), dtype=bool)
    if warm_costs is not None:
        prior_ids, prior_costs = warm_costs
        prior = np.zeros(num_vertices, dtype=np.float64)
        known = np.zeros(num_vertices, dtype=bool)
        prior[prior_ids] = prior_costs
        known[prior_ids] = True
        unknown = ~known[layer_deps]
        costs = prior[layer_deps]
    return costs, unknown


def _add_in_order(total: float, terms: np.ndarray) -> float:
    """``total += t`` for each term left to right (``cumsum`` adds
    sequentially, so the float result matches the scalar loop's)."""
    if len(terms) == 0:
        return total
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


def _add_evaluations(modeled_seconds: float, new_edge_counts: np.ndarray) -> float:
    """Charge one modeled subtree measurement per entry, in order."""
    return _add_in_order(
        modeled_seconds,
        _SECONDS_PER_EVALUATION + new_edge_counts * _SECONDS_PER_EDGE_VISIT,
    )


def _first_true(flags: np.ndarray) -> int:
    """Index of the first set flag, ``len(flags)`` when none is."""
    return int(np.argmax(flags)) if flags.any() else len(flags)


def _select_stale_cached(
    candidates: np.ndarray,
    layer: int,
    cost_model: DependencyCostModel,
    cache: CacheConfig,
    cache_budget: CacheBudget,
    graph: Graph,
    partitioning: Partitioning,
    worker: int,
) -> np.ndarray:
    """Pick the CACHED subset of one layer's communicated candidates."""
    if len(candidates) == 0 or not cache.strictly_amortizes():
        return np.empty(0, dtype=np.int64)
    # Strict-dominance gate: amortized fetch must beat per-epoch fetch.
    if not cost_model.t_cached(layer, cache.tau) < cost_model.t_c(layer):
        return np.empty(0, dtype=np.int64)
    return cache_budget.admit_prefix(
        rank_candidates(graph, partitioning.assignment, worker, candidates),
        cost_model.cache_entry_bytes(layer),
    )


def partition_dependencies(
    graph: Graph,
    partitioning: Partitioning,
    worker: int,
    dims: List[int],
    constants: ProbeResult,
    memory_limit_bytes: Optional[int] = None,
    mu: float = 0.8,
    force_cache_fraction: Optional[float] = None,
    cache: Optional[CacheConfig] = None,
    warm_start: Optional[DependencyPartition] = None,
    tp: Optional[TensorParallelCostInputs] = None,
) -> DependencyPartition:
    """Run Algorithm 4 for one worker.

    ``tp`` enables the per-layer *four-way* extension: after the
    three-way pass prices a layer, the whole layer is tentatively
    flipped to tensor parallelism when ``t_tp(l)`` undercuts the
    committed recompute + cached + comm total, rolling the tentative
    replications and allocations back.  Forced-fraction mode ignores
    ``tp`` (the Figure-11 sweep measures the three-way knob).

    ``force_cache_fraction`` bypasses the cost comparison and caches a
    fixed fraction of dependencies per layer (cheapest-first) -- the
    knob Figure 11's ratio sweep turns.  ``cache`` enables the third
    CACHED outcome (see module docstring); replicated closures and
    cache entries share ``memory_limit_bytes``.

    ``warm_start`` (a prior run's :class:`DependencyPartition` for the
    same worker and partitioning) seeds the heap from that run's
    ``initial_costs`` instead of measuring every subtree, skipping the
    initial sweep -- the online re-planning path.  Every pop is still
    re-measured before deciding, so warm-started decisions stay correct
    as long as the seeding order is close (exact under the health
    monitor's uniform per-worker constant scaling, which preserves the
    ``t_r`` ordering).  Vertices absent from the prior costs (a changed
    dependency set) fall back to a fresh measurement.
    """
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
    initial_costs: List[Tuple[np.ndarray, np.ndarray]] = []
    tp_layers: List[bool] = []
    tp_cost_s: List[float] = []
    three_way_cost_s: List[float] = []
    # One shared budget S: closures and cache entries draw jointly.
    # A zero budget still gets a (1-byte) tracker so every multi-byte
    # allocation is refused, matching the pre-tracker int bookkeeping.
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
        # Forced mode (Figure 11's sweep): a global quota over all
        # layers' dependencies, filled cheapest-first.  Layer 1 fills
        # first (cached features cost nothing per epoch), matching the
        # greedy's own preference ordering.
        total_deps = sum(len(d) for d in deps)
        quota_remaining = max(0, int(round(force_cache_fraction * total_deps)))
    else:
        quota_remaining = None

    tp_enabled = tp is not None and quota_remaining is None
    tp_below = False  # this worker tentatively flipped a lower layer

    for l in range(1, num_layers + 1):
        layer_deps = deps[l - 1]
        t_c = cost_model.t_c(l)
        warm_costs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if warm_start is not None and l - 1 < len(warm_start.initial_costs):
            warm_costs = warm_start.initial_costs[l - 1]
        layer_costs = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        layer_cached_cost = 0.0
        snapshot = None
        if tp_enabled:
            snapshot = (
                [rep.copy() for rep in cost_model.replicated],
                tracker.snapshot() if tracker is not None else None,
                cache_budget.snapshot() if cache_budget is not None else None,
                budget_exhausted,
            )
        # Below a TP layer the inputs exist only as owner-resident rows
        # (there is no closure to replicate through a slice exchange),
        # so recompute is off the table and the layer is priced on the
        # cached/comm options alone.
        if budget_exhausted or len(layer_deps) == 0 or tp_below:
            layer_cached = np.empty(0, dtype=np.int64)
        else:
            # Line 5-7: initial measurement of every dependency (seeded
            # from the warm start's prior costs when available).  No
            # commit happens during the sweep, so one independent batch
            # measures them all.
            costs, unknown = _warm_costs(warm_costs, layer_deps, graph.num_vertices)
            sweep = cost_model.measure_independent(layer_deps[unknown], l)
            costs[unknown] = sweep.cost_s
            evaluations += len(sweep.cost_s)
            modeled_seconds = _add_evaluations(
                modeled_seconds, sweep.new_edge_count
            )
            layer_costs = (layer_deps, costs)

            # Line 8-15: pop cheapest, re-measure, decide.  The heap only
            # ever pops in (cost, vertex) order and stops at the first
            # pop it does not cache, so the pops are an in-order batch
            # over a prefix of that order.  Blocks grow geometrically: a
            # layer that stops on its first pop wastes one small block.
            pop_order = layer_deps[np.lexsort((layer_deps, costs))]
            taken = []
            start, size = 0, _FIRST_POP_BLOCK
            while start < len(pop_order):
                block = pop_order[start : start + size]
                batch = cost_model.measure_in_order(block, l)
                if quota_remaining is not None:
                    stop = min(quota_remaining, len(block))
                else:
                    stop = _first_true(batch.cost_s >= t_c)
                if tracker is not None:
                    # Line 14-15: the first closure that does not fit
                    # ends the whole greedy.
                    room = tracker.budget_bytes - tracker.used_bytes
                    full = _first_true(np.cumsum(batch.memory_bytes) > room)
                    if full < stop:
                        stop = full
                        budget_exhausted = True
                    tracker.allocate(
                        int(batch.memory_bytes[:stop].sum()), CLOSURE_MEMORY_LABEL
                    )
                popped = min(stop + 1, len(block))  # the stopping pop counts
                evaluations += popped
                modeled_seconds = _add_evaluations(
                    modeled_seconds, batch.new_edge_count[:popped]
                )
                layer_cached_cost = _add_in_order(
                    layer_cached_cost, batch.cost_s[:stop]
                )
                if quota_remaining is not None:
                    quota_remaining -= stop
                cost_model.commit_prefix(batch, stop)
                taken.append(block[:stop])
                if stop < len(block):
                    break
                start += size
                size *= _POP_BLOCK_GROWTH
            layer_cached = np.sort(np.concatenate(taken))
        cached.append(layer_cached)
        initial_costs.append(layer_costs)
        # ``layer_deps`` is sorted unique, so membership-mask splits give
        # the same sorted arrays as ``setdiff1d`` without its hashing.
        member = np.zeros(graph.num_vertices, dtype=bool)
        member[layer_cached] = True
        remaining = layer_deps[~member[layer_deps]]
        if cache_budget is not None:
            stale = _select_stale_cached(
                remaining, l, cost_model, cache, cache_budget,
                graph, partitioning, worker,
            )
        else:
            stale = np.empty(0, dtype=np.int64)
        stale_cached.append(stale)
        member[stale] = True
        communicated.append(layer_deps[~member[layer_deps]])

        # Fourth option: flip the whole layer to tensor parallelism
        # when the dense slice transposes undercut the three-way total.
        # The comparison prices the comm share in the same bulk units as
        # ``t_tp`` (bytes at the wire rate plus one latency per peer,
        # forward + backward) rather than the per-vertex ``t_c``, whose
        # amortized framing overhead would bias the vote toward TP.
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
            # Every dependency stays fetchable: if the engine-level vote
            # keeps the layer three-way, this worker falls back to pure
            # DepComm for it rather than an unplanned recompute.
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


def vote_tp_layers(
    partitions: Dict[int, DependencyPartition],
    assignment: np.ndarray,
    dims: List[int],
    constants: ProbeResult,
    num_workers: int,
) -> List[bool]:
    """Aggregate per-worker four-way prices into one global per-layer vote.

    The engine flips a layer to tensor parallelism only when the slowest
    worker's TP cost undercuts the slowest worker's three-way cost plus
    the *excess sender straggler*.  Per-worker prices only count what a
    worker receives, but the per-vertex exchange also serializes each
    owner's sends -- under degree skew the hub owner ships far more rows
    than the balanced share, and the BSP barrier makes every worker wait
    for it.  The penalty charges the straggler's rows beyond the mean at
    the bulk byte rate (forward + backward); TP's all-to-all is
    volume-balanced by construction, so it pays no such term.

    Layers priced ``inf`` on any worker (TP disabled or unpriced) and
    layers with no remote dependencies never flip.
    """
    if not partitions:
        return []
    num_layers = min(
        min(len(p.tp_cost_s), len(p.three_way_cost_s))
        for p in partitions.values()
    )
    flags: List[bool] = []
    for l in range(1, num_layers + 1):
        tp_max = 0.0
        three_way_max = 0.0
        send_rows = np.zeros(num_workers, dtype=np.int64)
        total_rows = 0
        for part in partitions.values():
            tp_max = max(tp_max, part.tp_cost_s[l - 1])
            three_way_max = max(three_way_max, part.three_way_cost_s[l - 1])
            comm = part.communicated[l - 1]
            if len(comm):
                send_rows += np.bincount(
                    assignment[comm], minlength=num_workers
                )
                total_rows += len(comm)
        if total_rows == 0 or math.isinf(tp_max):
            flags.append(False)
            continue
        excess = float(send_rows.max()) - total_rows / num_workers
        straggler = (
            max(0.0, excess)
            * dims[l - 1]
            * 4
            * constants.t_c_byte
            * _BACKWARD_COMM
        )
        flags.append(tp_max < three_way_max + straggler)
    return flags
