"""DistDGL-like engine: a thin façade over :mod:`repro.sampling`.

Reproduces the defining behaviours of DistDGL (Section 2.2, 5.3) as
one configuration of :class:`~repro.sampling.SampledTrainingEngine`:

- uniform neighborhood sampling with a (10, 25) fanout, drawn from the
  single sequential RNG stream the pre-subsystem engine used (a
  :class:`~repro.sampling.samplers.LegacyStreamSampler`), so loss
  trajectories reproduce bit for bit;
- mini-batch synchronous SGD over each worker's training vertices;
- per-batch *sampling RPCs* against the distributed graph store
  (``rpc_accounting=True``): the id-plane round trips and payloads
  that keep DistDGL's GPU utilization low (Figure 13) — feature rows
  themselves are priced by the compiled exchange phase like every
  other engine;
- an accuracy ceiling below full-batch training (Figure 14), because
  only a sampled subset of neighbors participates.

This module holds only the constructor defaults that *are* the
baseline; every mini-batch compiles to the typed Program IR and is
charged by the accountant like any other engine's layer.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cluster.spec import ClusterSpec
from repro.comm.scheduler import CommOptions
from repro.core.model import GNNModel
from repro.graph.graph import Graph
from repro.partition.base import Partitioning
from repro.sampling.engine import SampledTrainingEngine
from repro.sampling.samplers import LegacyStreamSampler


class SamplingEngine(SampledTrainingEngine):
    """Mini-batch sampled training in the style of DistDGL."""

    name = "distdgl"

    def __init__(
        self,
        graph: Graph,
        model: GNNModel,
        cluster: ClusterSpec,
        partitioning: Optional[Partitioning] = None,
        comm: CommOptions = CommOptions.none(),
        fanouts: Tuple[int, ...] = (10, 25),
        batch_size: int = 128,
        record_timeline: bool = False,
        seed: int = 0,
        **kwargs,
    ):
        # A respawned clone arrives with its predecessor's sampler.
        kwargs.setdefault("sampler", LegacyStreamSampler(fanouts, seed=seed))
        kwargs.setdefault("rpc_accounting", True)
        super().__init__(
            graph,
            model,
            cluster,
            partitioning=partitioning,
            comm=comm,
            fanouts=fanouts,
            batch_size=batch_size,
            record_timeline=record_timeline,
            seed=seed,
            **kwargs,
        )
