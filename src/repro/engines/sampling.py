"""DistDGL-like engine: one configuration of :mod:`repro.sampling`.

Reproduces the defining behaviours of DistDGL (Section 2.2, 5.3) as a
:class:`~repro.sampling.SampledTrainingEngine` with the keyed
``uniform`` sampler:

- uniform neighborhood sampling with a (10, 25) fanout;
- mini-batch synchronous SGD over each worker's training vertices;
- per-batch *sampling RPCs* against the distributed graph store
  (``rpc_accounting``): the id-plane round trips and payloads
  that keep DistDGL's GPU utilization low (Figure 13) — feature rows
  themselves are priced by the compiled exchange phase like every
  other engine;
- none of NeutronStar's communication optimisations
  (``CommOptions.none()``), and no feature cache: every round fetches
  every remote feature row, held from the previous round or not
  (``keeps_resident_rows``);
- an accuracy ceiling below full-batch training (Figure 14), because
  only a sampled subset of neighbors participates.

With the same seed, fanouts and batch size it draws the same
mini-batches, and so trains the same weights, as the ``sampled``
engine; only the charged time differs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cluster.spec import ClusterSpec
from repro.comm.scheduler import CommOptions
from repro.core.model import GNNModel
from repro.graph.graph import Graph
from repro.partition.base import Partitioning
from repro.sampling.engine import SampledTrainingEngine


class SamplingEngine(SampledTrainingEngine):
    """Mini-batch sampled training in the style of DistDGL."""

    name = "distdgl"
    rpc_accounting = True
    keeps_resident_rows = False

    def __init__(
        self,
        graph: Graph,
        model: GNNModel,
        cluster: ClusterSpec,
        partitioning: Optional[Partitioning] = None,
        comm: CommOptions = CommOptions.none(),
        fanouts: Tuple[int, ...] = (10, 25),
        **kwargs,
    ):
        super().__init__(
            graph,
            model,
            cluster,
            partitioning=partitioning,
            comm=comm,
            fanouts=fanouts,
            **kwargs,
        )
