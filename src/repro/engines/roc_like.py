"""ROC-like baseline: DepComm with whole-block broadcast communication.

Section 5.3's finding about ROC: "the ROC worker does not differentiate
the output messages with various destinations and sends the whole
messages block to all workers, where the remote workers pick the
necessary dependencies from the block."  This engine reproduces that
behaviour: identical numerics to DepComm, but every layer's exchange
ships each worker's *entire* partition representations to every peer,
received blocks stay resident on the device, and none of NeutronStar's
R/L/P optimizations apply.  It also keeps the whole autograd tape in
device memory (Section 5.8: ROC lacks chunked message computation),
which is where its OOM cases come from.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.timeline import CPU
from repro.comm.scheduler import CommOptions, ExchangeStats
from repro.engines.base import EnginePlan
from repro.engines.depcomm import DepCommEngine
from repro.execution.accountant import LayerAccountant


class RocAccountant(LayerAccountant):
    """ROC's data management: broadcast whole blocks, filter on receipt,
    keep every received block resident."""

    # CPU rate at which a receiver scans a broadcast block to pick out
    # the dependencies it actually needs (the paper: "the remote workers
    # pick the necessary dependencies from the block").
    _FILTER_BYTES_PER_S = 2.0e9

    def forward_volumes(self, plan: EnginePlan, l: int) -> np.ndarray:
        """Every worker broadcasts its whole partition block."""
        engine = self.engine
        m = engine.cluster.num_workers
        volumes = np.zeros((m, m))
        d = engine.dims[l - 1]
        for s in range(m):
            block_bytes = len(engine.partitioning.part(s)) * d * 4
            for r in range(m):
                if r != s:
                    volumes[s, r] = block_bytes
        return volumes

    def _charge_block_filtering(self, l: int) -> None:
        """Receiver-side cost of scanning every peer's broadcast block
        and staging it over PCIe -- ROC's defining inefficiency."""
        engine = self.engine
        volumes = self._layer(l).exchange.volumes
        for r in range(engine.cluster.num_workers):
            total = 0.0
            for block_bytes in volumes[:, r]:
                total += (
                    block_bytes / self._FILTER_BYTES_PER_S
                    + engine.cluster.device.transfer_time(block_bytes)
                )
            engine.timeline.advance(r, CPU, float(total))

    def charge_forward_layer(self, l: int) -> ExchangeStats:
        self._charge_block_filtering(l)
        return super().charge_forward_layer(l)

    def charge_backward_layer(self, l: int) -> None:
        if l > 1:
            self._charge_block_filtering(l)
        super().charge_backward_layer(l)

    def account_resident_extras(self, plan: EnginePlan) -> None:
        # Received peer blocks stay resident on the device while the
        # layer executes: (|V| - |V_own|) rows of the widest layer.
        engine = self.engine
        widest = max(engine.dims[:-1])
        for w, tracker in enumerate(plan.device_memory):
            remote_rows = engine.graph.num_vertices - len(
                engine.partitioning.part(w)
            )
            tracker.allocate(remote_rows * widest * 4, "received_blocks")


class RocLikeEngine(DepCommEngine):
    """DepComm numerics with ROC's broadcast communication pattern."""

    name = "roc"
    chunked_execution = False
    tape_location = "device"
    # ROC keeps separate forward and backward edge buffers plus receive
    # staging (no free-after-use chunk management).
    tape_multiplier = 2.5
    accountant_cls = RocAccountant

    def __init__(self, *args, **kwargs):
        kwargs["comm"] = CommOptions.none()
        super().__init__(*args, **kwargs)
