"""The accountant: all timeline/communication charging for an engine.

Everything that turns the compiled program's static quantities (counts,
flops, byte volumes) into seconds on the cluster timeline lives here:
the layer compute split, the forward/backward exchange charges, the
parameter synchronisation, the loss charge, the memory model, and the
timing-only epoch fast path.  The executor (:mod:`.executor`) produces
numbers; the accountant produces time -- the split the unified
execution layer exists for.

The accountant dispatches on itself.  A baseline whose data management
differs from NeutronStar's -- what it ships, what stays resident --
subclasses :class:`LayerAccountant` and registers the subclass as its
engine's ``accountant_cls`` (ROC's broadcast volumes and block
filtering, the shared-memory variants' residency and chunk sizing).

The compiled :class:`~repro.execution.program.Program` is the one
description the charges read: charge-time methods take a layer index
and look up ``engine.program_.layers[l - 1]`` (exchange volumes, refresh
share, overlap marks, ``post_exchange``, the ``ComputeSpec``).  Only
the plan-time hooks (``forward_volumes``, ``max_chunk_edges``,
``account_resident_extras``, :func:`account_memory`) take the plan --
they run before a Program exists.  Seconds are evaluated at *charge
time* against ``engine._device(w)`` (the device view under straggler
faults), never baked into the IR.

The overlap pass (paper Section 5.4) surfaces here: when
:func:`.passes.run_passes` marked a worker's exchange as foldable,
:meth:`LayerAccountant.charge_forward_layer` overlaps that worker's
VertexForward (dense) time with the exchange's communication window --
the GPU total charged is unchanged, the wall-clock shrinks by at most
the window's idle slack, and the folded share is visible in the trace
as a GPU interval inside the window plus an ``overlap`` span.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.budget import CACHE_MEMORY_LABEL
from repro.cluster.timeline import GPU, NET_SEND
from repro.comm.scheduler import CacheTraffic, ExchangeStats, run_exchange
from repro.execution.plan import EnginePlan

# Host (DRAM) budget per worker, scaled like device memory (the paper's
# nodes have 62 GB).  DepCache keeps its closure tape in host memory.
HOST_MEMORY_BYTES = 230 * 1024 * 1024

# Fraction of a layer's forward compute charged again during backward.
BACKWARD_MULTIPLIER = 2.0


class LayerAccountant:
    """Charges one engine's execution to its cluster timeline."""

    def __init__(self, engine):
        self.engine = engine

    # -- compute split -------------------------------------------------
    def _layer(self, l: int):
        """The compiled :class:`LayerProgram` being charged."""
        return self.engine.program_.layers[l - 1]

    def layer_compute_split(self, l: int):
        """Per-worker (chunk_compute, local_compute, dense) seconds."""
        engine = self.engine
        m = engine.cluster.num_workers
        chunk_compute = np.zeros((m, m))
        local_compute = np.zeros(m)
        dense = np.zeros(m)
        specs = self._layer(l).compute_specs
        for w in range(m):
            device = engine._device(w)
            spec = specs[w]
            dense[w] = device.dense_time(spec.dense_flops)
            if spec.num_edges == 0:
                continue
            per_edge = spec.sparse_flops / spec.num_edges
            for j in range(m):
                count = int(spec.chunk_edges[j])
                if count == 0:
                    continue
                vertices = int(spec.chunk_vertices[j])
                h2d = device.transfer_time(
                    vertices * spec.d_in * 4 + count * 12
                )
                chunk_compute[j, w] = device.sparse_time(per_edge * count) + h2d
            local_edges = int(spec.local_edges)
            if local_edges:
                h2d = (
                    device.transfer_time(local_edges * 12)
                    if engine.chunked_execution
                    else 0.0
                )
                local_compute[w] = device.sparse_time(per_edge * local_edges) + h2d
        return chunk_compute, local_compute, dense

    # -- volumes -------------------------------------------------------
    def forward_volumes(self, plan: EnginePlan, l: int) -> np.ndarray:
        """Byte-volume matrix of layer ``l``'s forward exchange, asked
        for once, at lowering; charges read ``ExchangePhase.volumes``."""
        return plan.exchanges[l - 1].volume_matrix(self.engine.dims[l - 1])

    def backward_volumes(self, l: int) -> np.ndarray:
        """Byte-volume matrix of layer ``l``'s gradient return."""
        if l > 1:
            return self._layer(l).exchange.volumes.T
        return np.zeros((self.engine.cluster.num_workers,) * 2)

    def cache_traffic(self, l: int, backward: bool) -> Optional[CacheTraffic]:
        """The stale-cached share of layer ``l``'s exchange, if any."""
        engine = self.engine
        if not engine._cache_active:
            return None
        exchange = self._layer(l).exchange
        if exchange.refresh_entries == 0:
            return None
        if backward:
            # Gradient return happens only when the fetch happened; no
            # grads flow into layer-1 inputs (features), matching
            # backward_volumes.
            if l == 1:
                return None
            return CacheTraffic(
                volumes=exchange.refresh_volumes.T,
                refresh=engine._cache_refreshing,
                entries=0,
            )
        return CacheTraffic(
            volumes=exchange.refresh_volumes,
            refresh=engine._cache_refreshing,
            entries=exchange.refresh_entries,
        )

    # -- layer charges -------------------------------------------------
    def _exchange(
        self, volumes: np.ndarray, bytes_per_message: float, **compute
    ) -> ExchangeStats:
        """One exchange superstep on this engine's network, under its
        comm options and faults."""
        engine = self.engine
        return run_exchange(
            engine.timeline,
            engine.cluster.network,
            volumes,
            options=engine.comm,
            barrier=False,
            bytes_per_message=bytes_per_message,
            faults=engine.faults,
            **compute,
        )

    def charge_forward_layer(self, l: int) -> ExchangeStats:
        lp = self._layer(l)
        if lp.is_tp:
            from repro.execution.tp import tp_charge_forward_layer

            return tp_charge_forward_layer(self, l)
        chunk_compute, local_compute, dense = self.layer_compute_split(l)
        cache = self.cache_traffic(l, backward=False)
        stats = self._exchange(
            lp.exchange.volumes,
            lp.exchange.bytes_per_message,
            chunk_compute=chunk_compute,
            local_compute=local_compute,
            cache=cache,
        )
        self.engine._forward_stats.append(stats)
        # A refresh epoch moves the stale-cached share through the same
        # window, so the window is measured from the sum run_exchange sent.
        window = lp.exchange.volumes
        if cache is not None and cache.refresh:
            window = window + cache.volumes
        self._charge_dense(l, dense, stats, window)
        return stats

    def _fold_flags(self, l: int) -> Optional[np.ndarray]:
        """The layer's overlap marks (None = nothing marked)."""
        lp = self._layer(l)
        # TP layers fold the dense into the unslice (post) exchange --
        # the phase whose window precedes the owned-rows VertexForward.
        fold = (lp.post_exchange if lp.is_tp else lp.exchange).fold_dense
        return fold if fold.any() else None

    def _charge_dense(
        self,
        l: int,
        dense: np.ndarray,
        stats: ExchangeStats,
        volumes: np.ndarray,
    ) -> None:
        engine = self.engine
        timeline = engine.timeline
        fold = self._fold_flags(l)
        for w in range(engine.cluster.num_workers):
            d = dense[w]
            saved = 0.0
            if fold is not None and fold[w] and d > 0:
                saved = self._overlap_saving(stats, volumes, w, d)
            if saved <= 0:
                timeline.advance(w, GPU, d)
                continue
            # The folded share ran inside the exchange's comm window:
            # record it there (GPU totals unchanged), advance the clock
            # only by the remainder, and leave an inspectable span.
            now = timeline.now(w)
            timeline.record_interval(w, GPU, now - saved, saved)
            timeline.record_span(
                w, "overlap", now - saved, now, layer=l, saved_s=saved
            )
            timeline.advance(w, GPU, d - saved)

    def _overlap_saving(
        self,
        stats: ExchangeStats,
        volumes: np.ndarray,
        w: int,
        dense_w: float,
    ) -> float:
        """Dense seconds the exchange window can absorb for worker ``w``.

        The window's idle slack is ``comm - fill - busy``: after the
        first chunk lands (``fill``) and the already-overlapped
        chunk compute (``busy``, only when the P optimization pipelines
        it), the GPU sits idle until the last byte arrives.  Clamped to
        ``[0, dense_w]``, so folding can never increase wall-clock, and
        a single-chunk exchange (nothing to pipeline behind) folds
        nothing.
        """
        engine = self.engine
        network = engine.cluster.network
        m = volumes.shape[0]
        congested = not engine.comm.ring
        wires = [
            network.wire_time(volumes[j, w], congested=congested)
            for j in range(m)
            if j != w and volumes[j, w] > 0
        ]
        if len(wires) < 2:
            return 0.0
        comm = max(
            float(stats.send_s[w]) + float(stats.retry_wait_s[w]),
            float(stats.recv_s[w]),
        )
        fill = min(wires)
        busy = float(stats.compute_s[w]) if engine.comm.overlap else 0.0
        return min(float(dense_w), max(0.0, comm - fill - busy))

    def charge_backward_layer(self, l: int) -> None:
        lp = self._layer(l)
        if lp.is_tp:
            from repro.execution.tp import tp_charge_backward_layer

            tp_charge_backward_layer(self, l)
            return
        chunk_compute, local_compute, dense = self.layer_compute_split(l)
        compute = (
            chunk_compute.sum(axis=0) + local_compute + dense
        ) * BACKWARD_MULTIPLIER
        self._exchange(
            self.backward_volumes(l),
            lp.exchange.bytes_per_message,
            local_compute=compute,
            cache=self.cache_traffic(l, backward=True),
        )

    # -- loss / parameter sync -----------------------------------------
    def charge_loss(self, worker: int, num_train: int) -> None:
        """Prediction + loss cost: a softmax over the classes.

        The single home of the loss flops formula -- the numeric path
        (executor) and the timing-only path (:meth:`charge_epoch`) both
        charge through here, so estimate and charge cannot drift.
        """
        engine = self.engine
        flops = 6.0 * num_train * engine.dims[-1]
        engine.timeline.advance(
            worker, GPU, engine._device(worker).dense_time(flops)
        )

    def charge_allreduce(self) -> None:
        """Parameter synchronisation by ring all-reduce.

        The paper uses synchronous all-reduce and notes the model "is
        orthogonal to and can be replaced by the Parameter-Server
        model"; no experiment here replaces it.
        """
        engine = self.engine
        m = engine.cluster.num_workers
        if m == 1:
            return
        network = engine.cluster.network
        param_bytes = engine.model.parameter_bytes()
        # Ring all-reduce: 2 (m-1)/m of the data crosses each link.
        wire = 2.0 * (m - 1) / m * param_bytes / network.bytes_per_s
        latency = 2.0 * (m - 1) * network.latency_s
        if engine.faults is not None:
            # Every ring link is on the critical path, so the collective
            # is bounded by the slowest participating link.
            t = engine.timeline.makespan
            schedule = engine.faults.schedule
            divisor = 1.0
            extra_latency = 0.0
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    d, e = schedule.link_degradation(i, j, t)
                    divisor = max(divisor, d)
                    extra_latency = max(extra_latency, e)
            wire *= divisor
            latency += extra_latency * (2.0 * (m - 1))
        for w in range(m):
            engine.timeline.advance(
                w, NET_SEND, wire + latency, num_bytes=int(param_bytes)
            )
        engine._sync()

    # -- timing-only epoch ---------------------------------------------
    def charge_epoch(self) -> float:
        """Charge one epoch's modeled time WITHOUT numerical execution.

        The timing model depends only on the plan (block sizes, volumes)
        -- not on tensor values -- so performance benchmarks use this
        fast path; accuracy experiments use ``run_epoch``.  Both paths
        charge the same per-layer, loss, and all-reduce methods of this
        accountant, so the estimate cannot drift from the charged value.
        Returns the epoch's modeled seconds.
        """
        engine = self.engine
        engine.plan()
        engine._begin_epoch_cache()
        engine._forward_stats = []
        t_start = engine._sync()
        for l in range(1, engine.num_layers + 1):
            self.charge_forward_layer(l)
            engine._sync()
        if engine.graph.train_mask is not None:
            for w in range(engine.cluster.num_workers):
                owned = engine.partitioning.part(w)
                mine = int(engine.graph.train_mask[owned].sum())
                self.charge_loss(w, mine)
        engine._sync()
        for l in range(engine.num_layers, 0, -1):
            self.charge_backward_layer(l)
            engine._sync()
        self.charge_allreduce()
        engine._epoch += 1
        return engine._sync() - t_start

    # -- memory --------------------------------------------------------
    def max_chunk_edges(self, plan: EnginePlan, l: int, w: int) -> int:
        """Largest per-source-worker edge chunk in worker ``w``'s block."""
        engine = self.engine
        block = plan.blocks[l - 1][w]
        if block.num_edges == 0:
            return 0
        owners = engine.assignment[block.edge_src_global]
        counts = np.bincount(owners, minlength=engine.cluster.num_workers)
        return int(counts.max())

    def account_resident_extras(self, plan: EnginePlan) -> None:
        """What this engine keeps resident beyond the shared memory
        model; :func:`account_memory` calls it last.  Nothing here."""


# ----------------------------------------------------------------------
# Memory model
# ----------------------------------------------------------------------
def account_memory(engine, plan: EnginePlan) -> None:
    """Register resident bytes; raises OutOfMemoryError when over."""
    from repro.cluster.memory import MemoryTracker

    m = engine.cluster.num_workers
    device_budget = engine.cluster.device.memory_bytes
    plan.device_memory = [MemoryTracker(w, device_budget) for w in range(m)]
    plan.host_memory = [MemoryTracker(w, HOST_MEMORY_BYTES) for w in range(m)]
    for w in range(m):
        device = plan.device_memory[w]
        host = plan.host_memory[w]
        tape = host if engine.tape_location == "host" else device
        # Features resident for every locally available layer-1
        # input (stale-cached rows are accounted as cache entries).
        if plan.is_tp_layer(1):
            from repro.execution.tp import tp_feature_bytes

            tape.allocate(tp_feature_bytes(engine, plan, w), "features")
        else:
            feat_rows = (
                plan.blocks[0][w].num_inputs
                - len(plan.comm_ids[0][w])
                - len(plan.stale_deps[0][w])
            )
            tape.allocate(feat_rows * engine.dims[0] * 4, "features")
        # Historical-embedding entries live in host memory alongside
        # the DepCache closures they share the budget with.
        cache_bytes = sum(
            len(plan.stale_deps[l][w]) * engine.dims[l] * 4
            for l in range(engine.num_layers)
        )
        if cache_bytes:
            host.allocate(cache_bytes, CACHE_MEMORY_LABEL)
        peak_chunk = 0
        for l in range(1, engine.num_layers + 1):
            if plan.is_tp_layer(l):
                from repro.execution.tp import tp_account_layer_memory

                peak_chunk = max(
                    peak_chunk,
                    tp_account_layer_memory(engine, plan, l, w, tape, device),
                )
                continue
            block = plan.blocks[l - 1][w]
            layer = engine.model.layer(l)
            # Activations (inputs + outputs) live on the tape until
            # backward.
            tape.allocate(
                block.num_inputs * engine.dims[l - 1] * 4
                + block.num_outputs * engine.dims[l] * 4,
                f"activations_l{l}",
            )
            edge_bytes = int(
                layer.edge_tensor_bytes(block) * engine.tape_multiplier
            )
            if engine.chunked_execution:
                # Tape edge tensors live in host memory; the device
                # holds one source-chunk working set at a time.
                tape.allocate(edge_bytes, f"edge_tape_l{l}")
                chunk_edges = engine.accountant.max_chunk_edges(plan, l, w)
                if block.num_edges:
                    chunk_bytes = int(
                        edge_bytes * chunk_edges / block.num_edges
                    )
                else:
                    chunk_bytes = 0
                io_bytes = (
                    chunk_edges * 12
                    + block.num_outputs
                    * (engine.dims[l - 1] + engine.dims[l]) * 4
                )
                peak_chunk = max(peak_chunk, chunk_bytes + io_bytes)
            else:
                # Whole tape resident on the executing device.
                tape.allocate(edge_bytes, f"edge_tape_l{l}")
        if engine.chunked_execution:
            # A chunk that doesn't fit is subdivided further (the
            # point of chunked execution: "only needs to load a
            # chunk ... at a time"), so the working set is capped by
            # the budget rather than OOMing the device.
            device.allocate(
                min(peak_chunk, int(device.budget_bytes * 0.8)),
                "chunk_working_set",
            )

    engine.accountant.account_resident_extras(plan)
