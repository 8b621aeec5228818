"""Sampled mini-batch training compiled through the execution layer.

:class:`SampledTrainingEngine` subclasses :class:`BaseEngine` so that a
sampled round is charged exactly like a full-batch layer sweep: each
round's closures compile (:mod:`repro.sampling.compile`) to an
``EnginePlan`` + ``Program`` installed as the engine's current plan,
and the engine's accountant (``charge_forward_layer`` and friends)
prices them through ``run_exchange`` — faults, retries, the overlap
marks, and trace spans included.  Only the sampling phase itself
(CPU draw time + optional DistDGL-style id-plane RPC rounds) is charged
by the :class:`~repro.sampling.costs.SamplingCostModel`, whose rates
are derived from the probed ``T_e`` constants rather than hard-coded.

Determinism: every sampler's draws are a pure function of ``(seed,
epoch, batch, ids)``, so two engines built with the same seed produce
bit-identical losses *and* bit-identical charged timelines, and a
rollback to an earlier epoch replays the same mini-batches with no
sampler state saved.  The ``distdgl`` baseline is this engine with
DistDGL's defaults: it trains the same weights as ``sampled`` and is
charged differently.
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
from repro.sampling.closure import SampledClosure
from repro.sampling.compile import compile_round
from repro.sampling.costs import SamplingCostModel
from repro.sampling.samplers import NeighborSampler, make_sampler
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad


class SampledTrainingEngine(BaseEngine):
    """Mini-batch sampled synchronous SGD over the simulated cluster."""

    name = "sampled"
    # Whether each batch also pays DistDGL's sampling RPCs against the
    # distributed graph store (the ``distdgl`` configuration does).
    rpc_accounting = False
    # Whether a worker keeps its previous round's remote feature rows
    # and fetches only the rest (``distdgl`` models no feature cache:
    # it fetches every remote row every round).
    keeps_resident_rows = True

    def __init__(
        self,
        graph: Graph,
        model: GNNModel,
        cluster: ClusterSpec,
        partitioning: Optional[Partitioning] = None,
        comm: CommOptions = CommOptions.all(),
        fanouts=(10, 25),
        batch_size: int = 128,
        sampler: str = "uniform",
        kappa: int = 1,
        feature_cache_bytes: int = 0,
        record_timeline: bool = False,
        seed: int = 0,
    ):
        fanouts = tuple(int(f) for f in fanouts)
        if len(fanouts) != model.num_layers:
            raise ValueError("need one fanout per layer")
        batch_size = int(batch_size)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if kappa < 0 or kappa != int(kappa):
            raise ValueError(f"kappa must be a non-negative integer, got {kappa}")
        super().__init__(
            graph,
            model,
            cluster,
            partitioning=partitioning,
            comm=comm,
            record_timeline=record_timeline,
        )
        self.fanouts = fanouts
        self.batch_size = batch_size
        # Consecutive rounds that share their draws; 0 is an alias of 1.
        self.kappa = max(int(kappa), 1)
        self.seed = int(seed)
        self.sampler: NeighborSampler = make_sampler(
            sampler, fanouts, seed=self.seed
        )
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
        # The feature cache is sized in bytes, and no plan reads Eq. 3's
        # mu or a memory budget.
        for unread in ("cache_config", "mu", "memory_limit_bytes"):
            del kwargs[unread]
        kwargs.update(
            fanouts=self.fanouts,
            batch_size=self.batch_size,
            sampler=self.sampler.name,
            kappa=self.kappa,
            seed=self.seed,
            feature_cache_bytes=(
                self.feature_cache.capacity_bytes if self.feature_cache else 0
            ),
        )
        return kwargs

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

    def rounds(self, shuffle: bool):
        """The next epoch, one mini-batch round at a time: sample every
        worker's batch in one call, compile the round, mark its overlap
        windows.  Yields ``(round, closures, plan, program, traffic)``
        and touches no engine state, so the epoch loop and
        ``explain-plan --sampled``'s dry run draw the same rounds.

        The ``kappa`` rounds of one block (one ``r // kappa``) draw with
        one key.  A worker that ``keeps_resident_rows`` fetches only the
        remote rows it did not hold in its previous round.
        """
        worker_batches = self._worker_batches(shuffle)
        resident: Dict[int, np.ndarray] = {}
        for r in range(max((len(b) for b in worker_batches), default=0)):
            closures = self.sampler.sample_batch(
                self.graph,
                {
                    w: batches[r]
                    for w, batches in enumerate(worker_batches)
                    if r < len(batches)
                },
                epoch=self._epoch, batch=r // self.kappa,
            )
            plan, program, traffic = compile_round(self, closures, resident)
            if self.keeps_resident_rows:
                resident.update(traffic.per_worker_remote)
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
            "resident_rows": 0, "pinned_rows": 0, "saved_bytes": 0,
            "num_batches": 0,
        }
        memo = self.feature_aggregates
        bottom_rows, memoised = memo.rows_served, memo.rows_memoised
        remote_mask = np.zeros(self.graph.num_vertices, dtype=bool)
        t_start = self._sync()
        for _, closures, plan, program, traffic in self.rounds(shuffle=numeric):
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
            stats["resident_rows"] += traffic.resident_rows
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
            cache_hits=stats["resident_rows"] + stats["pinned_rows"],
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
                self.graph, {0: seeds}, epoch=self._epoch, batch=batch,
            )[0]
            logits = self._forward_closure(closure, training=False)
            rows = np.searchsorted(
                closure.blocks[-1].compute_vertices, seeds
            )
            predictions = logits.data[rows].argmax(axis=1)
            correct += int((predictions == self.graph.labels[seeds]).sum())
        return correct / len(targets) if len(targets) else 0.0
