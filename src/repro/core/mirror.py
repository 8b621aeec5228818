"""Master-mirror bookkeeping (Section 4.2, Figure 7).

Under vertex-cut partitioning a vertex's *master* lives on its owning
worker and *mirrors* exist on every worker that consumes it remotely.
Forward: each mirror pulls the master's representation
(synchronize-compute).  Backward: each mirror pushes its partial
gradient to the master, where contributions are aggregated
(compute-synchronize).  :class:`MirrorExchange` sets up, once per plan
and layer, who sends what to whom: the counts are what gets charged
(the byte-volume matrix of :func:`repro.comm.scheduler.run_exchange`,
the per-chunk staging work of a ``ComputeSpec``); the id lists are the
plan's statement of the exchange, which the row index the executor
follows (:class:`repro.execution.program.InputRoute`, compiled from the
blocks) must reproduce pair for pair wherever values really cross
workers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.comm.buffers import pack_by_destination


class MirrorExchange:
    """Send/recv id lists for one layer's mirror synchronisation.

    Parameters
    ----------
    assignment:
        ``assignment[v]`` = owning worker of vertex ``v``.
    comm_vertices:
        ``comm_vertices[i]`` = global ids worker ``i`` consumes remotely
        at this layer (its mirrors whose masters must be pulled).
    num_workers:
        Cluster size ``m``.
    """

    def __init__(
        self,
        assignment: np.ndarray,
        comm_vertices: Sequence[np.ndarray],
        num_workers: int,
    ):
        self.num_workers = num_workers
        # recv_ids[(j, i)] = masters on j whose data mirror-worker i
        # pulls: i's list packed by master, order kept within a master.
        self.recv_ids: Dict[Tuple[int, int], np.ndarray] = {}
        counts = np.zeros((num_workers, num_workers), dtype=np.int64)
        for i, vertices in enumerate(comm_vertices):
            vertices = np.asarray(vertices, dtype=np.int64)
            if len(vertices) == 0:
                continue
            _, chunks = pack_by_destination(
                vertices, assignment[vertices], num_workers
            )
            if len(chunks[i]):
                raise ValueError(
                    f"worker {i} lists its own vertices as remote mirrors"
                )
            for j, mine in enumerate(chunks):
                if len(mine):
                    self.recv_ids[(j, i)] = mine
                    counts[j, i] = len(mine)
        self.counts = counts

    def volume_matrix(self, dim: int, bytes_per_value: int = 4) -> np.ndarray:
        """Byte volumes ``[sender, receiver]`` for a ``dim``-wide tensor."""
        return self.counts.astype(np.float64) * dim * bytes_per_value

    def sends_from(self, worker: int) -> List[Tuple[int, np.ndarray]]:
        """(receiver, ids) pairs for one sender (forward direction)."""
        return [
            (i, ids) for (j, i), ids in self.recv_ids.items() if j == worker
        ]

    def recvs_to(self, worker: int) -> List[Tuple[int, np.ndarray]]:
        """(sender, ids) pairs for one receiver."""
        return [
            (j, ids) for (j, i), ids in self.recv_ids.items() if i == worker
        ]

    @property
    def total_vertices(self) -> int:
        return int(self.counts.sum())

    def reversed_counts(self) -> np.ndarray:
        """Backward direction: mirrors push gradients back to masters."""
        return self.counts.T
