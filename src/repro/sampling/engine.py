"""Sampled mini-batch training compiled through the execution layer.

:class:`SampledTrainingEngine` subclasses :class:`BaseEngine` so that a
sampled round is charged exactly like a full-batch layer sweep: each
round's closures compile (:mod:`repro.sampling.compile`) to an
``EnginePlan`` + ``Program`` installed as the engine's current plan,
and the engine's accountant (``charge_forward_layer`` and friends)
prices them through ``run_exchange`` — faults, retries, the overlap
pass, and trace spans included.  Only the sampling phase itself
(CPU draw time + optional DistDGL-style id-plane RPC rounds) is charged
by the :class:`~repro.sampling.costs.SamplingCostModel`, whose rates
are derived from the probed ``T_e`` constants rather than hard-coded.

Determinism: with the default keyed samplers every draw is a pure
function of ``(seed, epoch, batch, ids)``, so two engines built with
the same seed produce bit-identical losses *and* bit-identical charged
timelines.  Passing a
:class:`~repro.sampling.samplers.LegacyStreamSampler` as ``sampler``
switches to the single sequential stream the pre-subsystem DistDGL
engine used (the ``distdgl`` façade does, to reproduce its golden
trajectory bit for bit).
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import CPU, NET_RECV
from repro.comm.scheduler import CommOptions
from repro.core.model import GNNModel
from repro.costmodel.probe import probe_constants
from repro.engines.base import BaseEngine, EpochReport
from repro.execution.passes import run_passes
from repro.graph.graph import Graph
from repro.partition.base import Partitioning
from repro.sampling.cache import StaticFeatureCache
from repro.sampling.closure import ReuseState, SampledClosure
from repro.sampling.compile import compile_round
from repro.sampling.costs import SamplingCostModel
from repro.sampling.samplers import NeighborSampler, make_sampler
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad


class SampledTrainingEngine(BaseEngine):
    """Mini-batch sampled synchronous SGD over the simulated cluster."""

    name = "sampled"

    def __init__(
        self,
        graph: Graph,
        model: GNNModel,
        cluster: ClusterSpec,
        partitioning: Optional[Partitioning] = None,
        comm: CommOptions = CommOptions.all(),
        fanouts=(10, 25),
        batch_size: int = 128,
        sampler="uniform",
        kappa: float = 0.0,
        feature_cache_bytes: int = 0,
        record_timeline: bool = False,
        seed: int = 0,
        mu: float = 0.8,
        memory_limit_bytes: Optional[int] = None,
        update_mode: str = "allreduce",
        retry=None,
        cache_config=None,
        program_passes=None,
        rpc_accounting: bool = False,
    ):
        fanouts = tuple(int(f) for f in fanouts)
        if len(fanouts) != model.num_layers:
            raise ValueError("need one fanout per layer")
        batch_size = int(batch_size)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        kappa = float(kappa)
        if not 0.0 <= kappa <= 1.0:
            raise ValueError(f"kappa must be in [0, 1], got {kappa}")
        super().__init__(
            graph,
            model,
            cluster,
            partitioning=partitioning,
            comm=comm,
            record_timeline=record_timeline,
            mu=mu,
            memory_limit_bytes=memory_limit_bytes,
            update_mode=update_mode,
            retry=retry,
            cache_config=None,
            program_passes=program_passes,
        )
        self.fanouts = fanouts
        self.batch_size = batch_size
        self.kappa = kappa
        self.seed = int(seed)
        self.rpc_accounting = bool(rpc_accounting)
        if isinstance(sampler, str):
            sampler = make_sampler(sampler, fanouts, seed=self.seed)
        self.sampler: NeighborSampler = sampler
        # ``--cache-mb`` arrives as a CacheConfig; for sampled training
        # the budget pins hot remote *feature* rows instead of
        # historical embeddings.
        if (
            not feature_cache_bytes
            and cache_config is not None
            and getattr(cache_config, "capacity_bytes", 0)
        ):
            feature_cache_bytes = cache_config.capacity_bytes
        self.feature_cache = (
            StaticFeatureCache(graph, self.assignment, int(feature_cache_bytes))
            if feature_cache_bytes
            else None
        )
        self._cost: Optional[SamplingCostModel] = None
        self.last_epoch_stats: Optional[Dict[str, float]] = None

    # -- planning ------------------------------------------------------
    def plan(self):
        """Sampling has no static plan (one is compiled per round);
        kept for interface parity, probing the cost constants."""
        if self.constants is None:
            self.constants = probe_constants(self.cluster, self.model)
        return None

    def _cost_model(self) -> SamplingCostModel:
        if self._cost is None:
            self.plan()  # probes the constants
            self._cost = SamplingCostModel.from_probe(
                self.constants, self.cluster.network
            )
        return self._cost

    def _spawn_kwargs(self):
        kwargs = super()._spawn_kwargs()
        kwargs.update(
            fanouts=self.fanouts,
            batch_size=self.batch_size,
            sampler=self.sampler,
            kappa=self.kappa,
            seed=self.seed,
            rpc_accounting=self.rpc_accounting,
            feature_cache_bytes=(
                self.feature_cache.capacity_bytes if self.feature_cache else 0
            ),
        )
        return kwargs

    # -- sampler state (fault tolerance) -------------------------------
    def sampler_state(self) -> Dict[str, object]:
        """Checkpointable sampler state: the epoch counter plus whatever
        draw state the sampler carries (None for the keyed samplers)."""
        return {
            "epoch": self._epoch,
            "sampler": self.sampler.checkpoint(self._epoch),
        }

    def load_sampler_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`sampler_state` snapshot (checkpoint path)."""
        self.sampler.restore(int(state["epoch"]), state["sampler"])

    def rollback_to_epoch(self, epoch: int) -> None:
        """Rewind the epoch counter *and* the sampler's draw state."""
        super().rollback_to_epoch(epoch)
        self.sampler.restore(epoch)

    # -- batching and sampling -----------------------------------------
    def _worker_batches(self, shuffle: bool) -> List[List[np.ndarray]]:
        if self.graph.train_mask is None:
            raise ValueError("graph has no train mask; call set_split()")
        batches = []
        for w in range(self.cluster.num_workers):
            owned = self.partitioning.part(w)
            mine = owned[self.graph.train_mask[owned]]
            if shuffle:
                self.sampler.shuffle_rng(self._epoch, w).shuffle(mine)
            batches.append(
                [
                    mine[i: i + self.batch_size]
                    for i in range(0, len(mine), self.batch_size)
                ]
            )
        return batches

    def rounds(self, sampler: NeighborSampler, shuffle: bool):
        """The next epoch, one mini-batch round at a time: sample every
        worker's batch with ``sampler``, compile the round, run the
        program passes.  Yields ``(round, closures, plan, program,
        traffic)`` and touches no engine state, so the epoch loop runs
        it on the engine's own sampler and ``explain-plan --sampled``
        dry-runs it on a clone."""
        worker_batches = self._worker_batches(shuffle)
        reuse = [
            ReuseState() if self.kappa > 0.0 else None for _ in worker_batches
        ]
        for r in range(max((len(b) for b in worker_batches), default=0)):
            closures = {
                w: sampler.sample_batch(
                    self.graph, batches[r], worker=w, epoch=self._epoch,
                    batch=r, kappa=self.kappa, state=reuse[w],
                )
                for w, batches in enumerate(worker_batches)
                if r < len(batches)
            }
            plan, program, traffic = compile_round(self, closures)
            yield r, closures, plan, run_passes(program, self), traffic

    # -- charging ------------------------------------------------------
    def _charge_sampling(self, closures, traffic) -> None:
        cost = self._cost_model()
        for w, closure in closures.items():
            self.timeline.advance(
                w, CPU, cost.sampling_seconds(closure.num_sampled_edges)
            )
            if self.rpc_accounting:
                seconds, nbytes = cost.rpc_charge(
                    self.num_layers,
                    closure.num_sampled_edges,
                    traffic.per_worker_fetch.get(w, 0),
                )
                self.timeline.advance(
                    w, NET_RECV, seconds, num_bytes=int(nbytes)
                )

    # -- numerics ------------------------------------------------------
    def _forward_closure(self, closure: SampledClosure, training: bool) -> Tensor:
        with contextlib.nullcontext() if training else no_grad():
            layer, block = self.model.layer(1), closure.blocks[0]
            if layer.fused_reducer():
                out = self.feature_aggregates.forward(layer, block)
            else:
                rows = self.executor.gather_inputs(
                    self.plan_, None, 1, closure.worker, block
                )
                out = layer.forward(block, Tensor(rows))
            for l in range(2, self.num_layers + 1):
                out = self.model.layer(l).forward(closure.blocks[l - 1], out)
        return out

    def _train_round(self, closures, optimizer, total: float) -> float:
        # ``total`` is the epoch's running loss accumulator: summation
        # order (one accumulator, batches in worker order) reproduces
        # the pre-subsystem engine bit for bit.
        for w in sorted(closures):
            closure = closures[w]
            logits = self._forward_closure(closure, training=True)
            rows = np.searchsorted(
                closure.blocks[-1].compute_vertices, closure.seeds
            )
            loss = F.cross_entropy(
                logits[rows], self.graph.labels[closure.seeds]
            )
            total += float(loss.data)
            loss.backward()
            if optimizer is not None:
                optimizer.step()
                optimizer.zero_grad()
        return total

    # -- the epoch loop ------------------------------------------------
    def _run_epoch_impl(self, optimizer, numeric: bool) -> EpochReport:
        self._forward_stats = []
        total_loss = 0.0
        loss_terms = 0
        stats = {
            "sampled_edges": 0, "remote_rows": 0, "fetched_rows": 0,
            "reused_rows": 0, "pinned_rows": 0, "saved_bytes": 0,
            "num_batches": 0,
        }
        memo = self.feature_aggregates
        bottom_rows, memoised = memo.rows_served, memo.rows_memoised
        remote_mask = np.zeros(self.graph.num_vertices, dtype=bool)
        t_start = self._sync()
        for _, closures, plan, program, traffic in self.rounds(
            self.sampler, shuffle=numeric
        ):
            self.plan_ = plan
            self.program_ = program
            self._charge_sampling(closures, traffic)
            if numeric:
                total_loss = self._train_round(closures, optimizer, total_loss)
            loss_terms += len(closures)
            for l in range(1, self.num_layers + 1):
                self.accountant.charge_forward_layer(l)
            for w, closure in closures.items():
                self.accountant.charge_loss(w, len(closure.seeds))
            for l in range(self.num_layers, 0, -1):
                self.accountant.charge_backward_layer(l)
            stats["num_batches"] += len(closures)
            stats["remote_rows"] += traffic.remote_rows
            stats["fetched_rows"] += traffic.fetch_rows
            stats["reused_rows"] += traffic.reused_rows
            stats["pinned_rows"] += traffic.pinned_rows
            stats["saved_bytes"] += traffic.saved_bytes
            for w, closure in closures.items():
                stats["sampled_edges"] += closure.num_sampled_edges
                remote_mask[traffic.per_worker_remote[w]] = True
            self.accountant.charge_allreduce()
            if self.cluster.num_workers == 1:
                self._sync()
        t_end = self._sync()
        comm_bytes = int(sum(s.total_bytes for s in self._forward_stats))
        self.plan_ = None
        self.program_ = None
        self._epoch += 1
        self.sampler.checkpoint(self._epoch)
        stats["comm_bytes"] = comm_bytes
        stats["unique_remote"] = int(remote_mask.sum())
        stats["bottom_rows"] = memo.rows_served - bottom_rows
        stats["bottom_rows_memoised"] = memo.rows_memoised - memoised
        stats["epoch_time_s"] = t_end - t_start
        self.last_epoch_stats = stats
        return EpochReport(
            epoch=self._epoch,
            epoch_time_s=t_end - t_start,
            loss=total_loss / max(loss_terms, 1),
            comm_bytes=comm_bytes,
            forward_time_s=0.0,
            backward_time_s=0.0,
            allreduce_time_s=0.0,
            cache_hits=stats["reused_rows"] + stats["pinned_rows"],
            cache_misses=stats["fetched_rows"],
            comm_saved_bytes=stats["saved_bytes"],
        )

    def run_epoch(self, optimizer=None) -> EpochReport:
        """One epoch = every worker's train vertices in mini-batches."""
        return self._run_epoch_impl(optimizer, numeric=True)

    def charge_epoch(self) -> float:
        """Timing-only epoch (samples + compiles + charges, no tensors)."""
        return self._run_epoch_impl(None, numeric=False).epoch_time_s

    # -- evaluation ----------------------------------------------------
    def evaluate(self, mask: Optional[np.ndarray] = None) -> float:
        """Sampled-inference accuracy (the sampling accuracy ceiling)."""
        if mask is None:
            mask = self.graph.test_mask
        if mask is None:
            raise ValueError("graph has no test mask; call set_split()")
        targets = np.where(mask)[0]
        correct = 0
        for batch, i in enumerate(range(0, len(targets), self.batch_size)):
            seeds = targets[i: i + self.batch_size]
            closure = self.sampler.sample_batch(
                self.graph, seeds, epoch=self._epoch, batch=batch,
                kappa=0.0, state=None,
            )
            logits = self._forward_closure(closure, training=False)
            rows = np.searchsorted(
                closure.blocks[-1].compute_vertices, seeds
            )
            predictions = logits.data[rows].argmax(axis=1)
            correct += int((predictions == self.graph.labels[seeds]).sum())
        return correct / len(targets) if len(targets) else 0.0
