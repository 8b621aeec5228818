"""Probing the environment constants T_v, T_e, T_c (Algorithm 4, line 1).

The paper probes by executing a test training on a small graph.  Here
the "execution" runs through the same cluster timing model the engines
use, so the probed constants are consistent with what the engines will
actually charge -- exactly the property the real system gets from
probing on real hardware.

All three constants are *per-dimension, per-epoch* costs (forward +
backward):

- ``t_v``: seconds to compute one vertex's representation, per output
  dimension;
- ``t_e``: seconds to process one edge, per input dimension;
- ``t_c``: seconds to communicate one vertex representation, per
  dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.cluster.network import CPU_PACK_BYTES_PER_S
from repro.cluster.spec import ClusterSpec
from repro.comm.scheduler import CommOptions
from repro.core.blocks import build_block
from repro.core.model import GNNModel
from repro.graph import generators


@dataclass(frozen=True)
class ProbeResult:
    """Probed per-dimension costs, plus per-layer refinements.

    ``t_v_layer[l-1]`` / ``t_e_layer[l-1]`` are per-vertex / per-edge
    seconds for layer ``l`` (already multiplied out, *not* per
    dimension); the scalar ``t_v`` / ``t_e`` / ``t_c`` are the paper's
    per-dimension constants averaged over layers.
    """

    t_v: float
    t_e: float
    t_c: float
    t_v_layer: List[float]
    t_e_layer: List[float]
    t_c_layer: List[float]
    # Bulk-transfer decomposition used by the tensor-parallel cost
    # term: ``t_c`` folds the per-vertex message overhead into a single
    # per-dimension rate, but a feature-slice all-to-all ships a few
    # huge messages, so its cost is ``bytes * t_c_byte`` plus
    # ``t_msg`` per peer message (one-way, before the fwd+bwd factor).
    t_c_byte: float = 0.0
    t_msg: float = 0.0

    def vertex_cost(self, layer: int) -> float:
        """Per-epoch seconds to (re)compute one vertex at layer ``layer``."""
        return self.t_v_layer[layer - 1]

    def edge_cost(self, layer: int) -> float:
        """Per-epoch seconds to (re)process one in-edge at layer ``layer``."""
        return self.t_e_layer[layer - 1]

    def comm_cost(self, layer: int) -> float:
        """Per-epoch seconds to communicate one layer-``layer`` input."""
        return self.t_c_layer[layer - 1]

    def scaled(self, compute: float, comm: float) -> "ProbeResult":
        """These constants on a worker whose compute runs ``compute``
        times and whose communication runs ``comm`` times as long: the
        one lever every re-plan pulls."""
        return replace(
            self,
            t_v=self.t_v * compute,
            t_e=self.t_e * compute,
            t_c=self.t_c * comm,
            t_v_layer=[t * compute for t in self.t_v_layer],
            t_e_layer=[t * compute for t in self.t_e_layer],
            t_c_layer=[t * comm for t in self.t_c_layer],
        )


# Forward + backward: backward costs roughly 2x forward for compute and
# one reverse message for communication.
_BACKWARD_COMPUTE = 3.0
_BACKWARD_COMM = 2.0

#: The probe graph's size and average degree.
PROBE_VERTICES = 64
PROBE_DEGREE = 4


def probe_constants(
    spec: ClusterSpec,
    model: GNNModel,
    comm: CommOptions = CommOptions.all(),
) -> ProbeResult:
    """Measure T_v, T_e, T_c on a small test graph.

    The test graph is a small random graph (``PROBE_VERTICES`` vertices
    of in-degree ``PROBE_DEGREE``) whose per-layer blocks are
    pushed through the device/network timing model; per-vertex and
    per-edge times are read off and normalised.  ``comm`` is the
    configuration the training run will use: probing with mutex queues
    and unscheduled (congested) sends yields a higher ``T_c``, exactly
    as a real probe run on that configuration would measure.
    """
    test_graph = generators.erdos_renyi(
        PROBE_VERTICES, PROBE_VERTICES * PROBE_DEGREE, seed=7
    ).gcn_normalized()
    device = spec.device
    network = spec.network
    dims = model.dims()

    t_v_layer: List[float] = []
    t_e_layer: List[float] = []
    t_c_layer: List[float] = []
    all_vertices = list(range(test_graph.num_vertices))
    for l in range(1, model.num_layers + 1):
        layer = model.layer(l)
        block = build_block(test_graph, all_vertices, l)
        dense_s = device.dense_time(layer.dense_flops(block))
        sparse_s = device.sparse_time(layer.sparse_flops(block))
        per_vertex = dense_s / block.num_outputs * _BACKWARD_COMPUTE
        per_edge = sparse_s / max(block.num_edges, 1) * _BACKWARD_COMPUTE
        t_v_layer.append(per_vertex)
        t_e_layer.append(per_edge)
        # Communicating one layer-l input: d^(l-1) floats each way, plus
        # packing, amortising the per-message latency over a typical
        # chunk of remote vertices.
        payload = dims[l - 1] * 4
        amortised_latency = network.latency_s / PROBE_VERTICES
        wire = network.wire_time(payload, congested=not comm.ring)
        pack = network.pack_time(payload, num_messages=1, lock_free=comm.lock_free)
        per_comm = (
            wire - network.latency_s + amortised_latency + pack
        ) * _BACKWARD_COMM
        t_c_layer.append(per_comm)

    t_v = sum(t / d for t, d in zip(t_v_layer, dims[1:])) / model.num_layers
    t_e = sum(t / d for t, d in zip(t_e_layer, dims[:-1])) / model.num_layers
    t_c = sum(t / d for t, d in zip(t_c_layer, dims[:-1])) / model.num_layers
    # Steady-state per-byte cost of a bulk transfer (wire + packing,
    # one-way, latency excluded) and the per-message latency itself.
    congestion = 1.0 if comm.ring else network.congestion_factor
    t_c_byte = (
        congestion / network.bytes_per_s + 1.0 / CPU_PACK_BYTES_PER_S
    )
    t_msg = network.latency_s * congestion
    return ProbeResult(
        t_v=t_v,
        t_e=t_e,
        t_c=t_c,
        t_v_layer=t_v_layer,
        t_e_layer=t_e_layer,
        t_c_layer=t_c_layer,
        t_c_byte=t_c_byte,
        t_msg=t_msg,
    )
