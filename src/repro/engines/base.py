"""The distributed training engine shared by DepCache / DepComm / Hybrid.

The strategies differ *only* in how each worker splits its remote
dependencies into cached ``R_i^l`` and communicated ``C_i^l`` sets
(Section 3); subclasses implement :meth:`BaseEngine.decide_dependencies`
and everything else is shared.

An engine is that strategy plus what a run needs: constructor
validation, ``plan`` / ``replan`` / ``respawn``, resilience and
cache-lifecycle state, and the public ``run_epoch`` / ``evaluate`` /
``charge_epoch`` protocol.  Planning compiles the :class:`EnginePlan`
into the dataflow :class:`~repro.execution.program.Program` (Section
4); numerics run on ``engine.executor``, timeline charging on
``engine.accountant``, whose class a baseline with different data
management replaces via ``accountant_cls``.  Numerics are real; time
is modeled per DESIGN.md section 5.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.budget import CacheConfig
from repro.cache.historical import HistoricalEmbeddingCache
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import CPU, IDLE, Timeline
from repro.comm.scheduler import CommOptions, ExchangeStats
from repro.core.feature_aggregate import FeatureAggregateStore
from repro.core.model import GNNModel
from repro.costmodel.probe import ProbeResult, probe_constants
from repro.execution.accountant import (
    HOST_MEMORY_BYTES,
    LayerAccountant,
    account_memory,
)
from repro.execution.executor import LayerExecutor
from repro.execution.passes import run_passes
from repro.execution.plan import (
    EnginePlan,
    EpochReport,
    build_engine_plan,
    build_historical_caches,
)
from repro.execution.program import Program, compile_program
from repro.graph.graph import Graph
from repro.partition.base import Partitioning
from repro.partition.chunk import chunk_partition
from repro.resilience.faults import WorkerCrashError
from repro.resilience.injector import FaultInjector

__all__ = [
    "HOST_MEMORY_BYTES", "BaseEngine", "EnginePlan", "EpochReport",
]


class BaseEngine:
    """Distributed full-batch GNN training over a simulated cluster.

    ``graph`` must be prepared (e.g. ``gcn_normalized()``); ``model`` is
    the shared replica; ``partitioning`` defaults to chunk-based;
    ``comm`` selects the R/L/P optimizations.
    """

    name = "base"
    # One source-chunk of edge tensors on the device at a time
    # (NeutronStar); ROC-style engines keep the whole tape resident.
    chunked_execution = True
    tape_location = "host"  # autograd tape home (Section 5.8)
    tape_multiplier = 1.0  # extra edge buffers sans free-after-use
    # What charges this engine's execution to the timeline; baselines
    # with their own data management register a subclass.
    accountant_cls = LayerAccountant

    def __init__(
        self,
        graph: Graph,
        model: GNNModel,
        cluster: ClusterSpec,
        partitioning: Optional[Partitioning] = None,
        comm: CommOptions = CommOptions.all(),
        record_timeline: bool = False,
        mu: float = 0.8,
        memory_limit_bytes: Optional[int] = None,
        cache_config: Optional[CacheConfig] = None,
    ):
        if graph.features is None or graph.labels is None:
            raise ValueError("training graph needs features and labels")
        if model.in_dim != graph.feature_dim:
            raise ValueError(
                f"model in_dim {model.in_dim} != feature dim {graph.feature_dim}"
            )
        self.graph = graph
        self.model = model
        self.cluster = cluster
        self.partitioning = partitioning or chunk_partition(
            graph, cluster.num_workers
        )
        if self.partitioning.num_parts != cluster.num_workers:
            raise ValueError("partitioning does not match cluster size")
        self.comm = comm
        # A truthy fault schedule activates the fault-aware charging
        # paths; otherwise charging is bit-identical to fault-free.
        self.faults: Optional[FaultInjector] = (
            FaultInjector(cluster.faults) if cluster.faults else None
        )
        self.timeline: Timeline = cluster.make_timeline(record=record_timeline)
        self.mu = mu
        if memory_limit_bytes is not None and memory_limit_bytes < 0:
            raise ValueError(
                f"memory_limit_bytes must be >= 0, got {memory_limit_bytes}"
            )
        self.memory_limit_bytes = memory_limit_bytes
        # Staleness-bounded caching (the third dependency mode); no
        # config means bit-identical to the cache-free engine.
        self.cache_config = cache_config
        self._hist_caches: Optional[List[HistoricalEmbeddingCache]] = None
        self._last_refresh_epoch: Optional[int] = None
        self._force_refresh = False
        self._cache_refreshing = False
        self._in_training_forward = False
        self._forward_stats: List[ExchangeStats] = []
        self.assignment = self.partitioning.assignment
        self.dims = model.dims()
        self.num_layers = model.num_layers
        self.constants: Optional[ProbeResult] = None
        # Per-worker effective constants from the health monitor;
        # empty means every worker plans with self.constants.
        self.constants_overrides: Dict[int, ProbeResult] = {}
        self.plan_: Optional[EnginePlan] = None
        self.program_: Optional[Program] = None
        self.executor = LayerExecutor(self)
        self.accountant = self.accountant_cls(self)
        self._feature_aggregates: Optional[FeatureAggregateStore] = None
        self._epoch = 0
        # Position lookup of every vertex inside its owner's sorted set.
        self._owner_pos = np.zeros(graph.num_vertices, dtype=np.int64)
        for w in range(cluster.num_workers):
            part = self.partitioning.part(w)
            self._owner_pos[part] = np.arange(len(part))

    # -- planning (compiles the plan into the dataflow program) ---
    def decide_dependencies(
        self, worker: int
    ) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray], float]:
        """Split each layer's remote deps into (cached, communicated,
        stale).

        Returns ``(cached_per_layer, communicated_per_layer,
        stale_per_layer, prep_s)``, lists indexed ``[l-1]``; the stale
        (staleness-bounded CACHED) lists are empty for an engine
        without a historical cache.
        """
        raise NotImplementedError

    def plan(self) -> EnginePlan:
        """Build the execution plan (idempotent); may raise OOM."""
        if self.plan_ is not None:
            return self.plan_
        if self.constants is None:
            # Probe with the optimised communication path: Algorithm 4's
            # t_c is the steady-state byte cost, not congestion/mutex
            # artefacts (those cascade into all-cache decisions).
            self.constants = probe_constants(self.cluster, self.model)
        plan = build_engine_plan(self)
        account_memory(self, plan)
        self.plan_ = plan
        self.program_ = run_passes(compile_program(self, plan), self)
        self._hist_caches = build_historical_caches(self, plan)
        return plan

    @property
    def _cache_active(self) -> bool:
        return self._hist_caches is not None

    @property
    def feature_aggregates(self) -> FeatureAggregateStore:
        """The layer-1 feature-aggregate memo, created by the first
        forward that asks for it (set-up builds nothing)."""
        if self._feature_aggregates is None:
            self._feature_aggregates = FeatureAggregateStore(self.graph)
        return self._feature_aggregates

    def _constants_for(self, worker: int) -> Optional[ProbeResult]:
        """Effective cost-model constants for ``worker``'s planning
        (health-monitor overrides win; else the cluster-wide probe)."""
        return self.constants_overrides.get(worker, self.constants)

    def replan(self, constants_overrides: Dict[int, ProbeResult]) -> None:
        """Re-run dependency planning mid-training (online re-planning).

        Installs ``constants_overrides`` (per-worker constants; workers
        without an entry plan with the cluster-wide probe), discards
        plan and program, re-decides R/C/H sets, charges the new
        preprocessing, barriers.  Historical caches restart cold, so
        the next epoch refreshes -- re-planning never serves stale
        entries stamped under the old plan.
        """
        self.constants_overrides = dict(constants_overrides)
        self.plan_ = None
        self.program_ = None
        plan = self.plan()  # None for per-round-compiled engines
        if plan is not None and plan.preprocessing_s > 0:
            for w in range(self.cluster.num_workers):
                self.timeline.advance(w, CPU, plan.preprocessing_s)
        self.timeline.barrier()
        if self._cache_active:
            self._last_refresh_epoch = None
            self._force_refresh = True

    def _spawn_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs a reshaped clone of this engine inherits."""
        return dict(
            comm=self.comm,
            record_timeline=self.timeline.record,
            mu=self.mu,
            memory_limit_bytes=self.memory_limit_bytes,
            cache_config=self.cache_config,
        )

    def respawn(
        self, cluster: ClusterSpec, partitioning: Partitioning
    ) -> "BaseEngine":
        """A fresh engine of the same class on a reshaped cluster.

        Shares the graph and the *model object* (optimizers stay valid
        across an elastic reshape) and inherits the probed constants;
        the new timeline starts at zero and the elastic layer advances
        it to the handover point.
        """
        engine = type(self)(
            self.graph,
            self.model,
            cluster,
            partitioning=partitioning,
            **self._spawn_kwargs(),
        )
        engine.constants = self.constants
        return engine

    # -- resilience: fault-aware lookups, crashes, re-provisioning 
    def _device(self, worker: int):
        """The device profile ``worker`` experiences *now* (stragglers)."""
        if self.faults is None:
            return self.cluster.device
        return self.faults.device_view(
            self.cluster.device, worker, self.timeline.now(worker)
        )

    def _sync(self) -> float:
        """Barrier + crash detection: a dead worker becomes observable
        here and surfaces as :class:`WorkerCrashError` for the recovery
        policy (:mod:`repro.training.resilient`) to handle."""
        t = self.timeline.barrier()
        if self.faults is None:
            return t
        fault = self.faults.schedule.pending_crash(t)
        if fault is None:
            return t
        if fault.detection_timeout_s > 0:
            for w in range(self.cluster.num_workers):
                self.timeline.advance(w, IDLE, fault.detection_timeout_s)
        raise WorkerCrashError(fault, self.timeline.barrier())

    def rollback_to_epoch(self, epoch: int) -> None:
        """Reset the epoch counter after a checkpoint restore (the
        modeled clock is *not* rewound -- lost work stays charged)."""
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        self._epoch = int(epoch)

    # -- staleness-bounded caching lifecycle ----------------------
    def force_refresh(self) -> None:
        """Make the next epoch a refresh epoch (staleness-accuracy
        guard); a no-op without a cache config."""
        self._force_refresh = True

    def _begin_epoch_cache(self) -> bool:
        """Decide whether this epoch re-fetches the CACHED sets: fires
        when the cache is cold, ``tau`` elapsed or is 0, or a refresh
        was forced.  Kept on ``self._cache_refreshing``."""
        if not self._cache_active:
            self._cache_refreshing = False
            return False
        tau = self.cache_config.tau
        due = (
            tau <= 0
            or self._last_refresh_epoch is None
            or self._force_refresh
            or (self._epoch - self._last_refresh_epoch) >= tau
        )
        self._cache_refreshing = bool(due)
        if due:
            self._last_refresh_epoch = self._epoch
            self._force_refresh = False
        return self._cache_refreshing

    # -- the epoch protocol trainers, sweeps and benchmarks call ----
    def run_epoch(self, optimizer=None) -> EpochReport:
        """One full-batch training epoch (forward, loss, backward, update)."""
        return self.executor.run_epoch(optimizer=optimizer)

    def evaluate(self, mask: Optional[np.ndarray] = None) -> float:
        """Accuracy over ``mask`` (default: test mask), forward-only."""
        return self.executor.evaluate(mask=mask)

    def charge_epoch(self) -> float:
        """Charge one epoch's modeled time WITHOUT numerical execution
        (the same per-layer accountant charges ``run_epoch`` makes)."""
        return self.accountant.charge_epoch()
