"""Single-machine baselines: DGL-like, PyG-like, and single-node NTS.

Tables 4 and 5 compare NeutronStar against shared-memory systems.  On
one worker there are no remote dependencies, so all three run the same
numerics; they differ in the memory model:

- **DGL-like**: whole-graph execution with the full autograd tape
  (edge tensors of every layer) resident in device memory.
- **PyG-like**: DGL-like plus a dense |V| x |V| adjacency matrix (the
  paper: "it uses the matrix, instead of the compressed matrix, to
  store the graph"), which is what OOMs it first.
- **NTS single-node**: NeutronStar's chunked execution -- intermediate
  results cached in host memory, the device holding one edge chunk at a
  time (Section 5.8), letting it process graphs DGL/PyG cannot.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.comm.scheduler import CommOptions
from repro.engines.base import BaseEngine, EnginePlan
from repro.execution.accountant import LayerAccountant

# Extra working memory DGL/PyG-style full-graph execution needs beyond
# the tape (workspace for segment ops and autograd temporaries).
_FRAMEWORK_OVERHEAD = 1.15


class SharedMemoryAccountant(LayerAccountant):
    """The memory model that tells DGL, PyG and single-node NTS apart."""

    def account_resident_extras(self, plan: EnginePlan) -> None:
        engine = self.engine
        tracker = plan.device_memory[0]
        if engine.variant == "pyg":
            # PyG stores the graph as a dense |V| x |V| matrix.  The
            # quadratic term under-scales when vertex counts are scaled
            # down by s (linear terms shrink by s, quadratic by s^2), so
            # the scaled stand-in is 4 * V * paper_V bytes -- the same
            # value relative to the linear terms as at paper scale.
            n = engine.graph.num_vertices
            paper_n = max(engine.paper_num_vertices, n)
            tracker.allocate(4 * n * paper_n, "dense_adjacency")
        if engine.variant in ("dgl", "pyg"):
            overhead = int(tracker.used_bytes * (_FRAMEWORK_OVERHEAD - 1.0))
            tracker.allocate(overhead, "framework_workspace")

    def max_chunk_edges(self, plan: EnginePlan, l: int, w: int) -> int:
        """NTS single-node splits edges into fixed-size source chunks."""
        if self.engine.variant != "nts":
            return super().max_chunk_edges(plan, l, w)
        block = plan.blocks[l - 1][w]
        num_chunks = 16
        return int(np.ceil(block.num_edges / num_chunks))


class SharedMemoryEngine(BaseEngine):
    """Single-worker full-graph engine with a selectable memory model."""

    name = "shared-memory"
    VARIANTS = ("dgl", "pyg", "nts")
    accountant_cls = SharedMemoryAccountant

    def __init__(
        self,
        graph,
        model,
        cluster=None,
        variant: str = "nts",
        paper_num_vertices: int = 0,
        **kwargs,
    ):
        if variant not in self.VARIANTS:
            raise ValueError(f"variant must be one of {self.VARIANTS}")
        cluster = cluster or ClusterSpec.single_gpu()
        if cluster.num_workers != 1:
            raise ValueError("SharedMemoryEngine runs on a single worker")
        self.variant = variant
        self.paper_num_vertices = paper_num_vertices
        self.name = variant
        if variant == "nts":
            self.chunked_execution = True
            self.tape_location = "host"
        else:
            self.chunked_execution = False
            self.tape_location = "device"
        kwargs.setdefault("comm", CommOptions.none())
        super().__init__(graph, model, cluster, **kwargs)

    def decide_dependencies(
        self, worker: int
    ) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray], float]:
        empty = [np.empty(0, dtype=np.int64) for _ in range(self.num_layers)]
        return empty, list(empty), list(empty), 0.0
