"""Lock-free parallel message enqueuing (Section 4.3).

The paper's trick: because each layer's messages have a regular
pattern, the send buffer can be laid out ahead of time by parsing the
destination vertex ids into a write-position index; worker threads then
write their messages at disjoint precomputed offsets, so no mutex is
needed.  :class:`PositionIndexedBuffer` is that layout -- one stable
sort of the message rows by the worker on the other end -- and it is
built once, never per epoch: :class:`repro.core.mirror.MirrorExchange`
packs each mirror worker's pull list by master with it, and the
compiled program keys one on the producing worker of every block input
row (:class:`repro.execution.program.InputRoute`), which is the index
the executor's ``GetFromDepNbr`` / ``PostToDepNbr`` follow.  The *cost*
difference between the lock-free and mutex designs is modeled by
:class:`repro.cluster.network.NetworkProfile.pack_time`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


class PositionIndexedBuffer:
    """A fixed-layout send buffer with precomputed write positions.

    Built once per layer from the worker each message row is exchanged
    with; ``scatter`` then writes rows into a single contiguous buffer
    at conflict-free positions, ``chunk_for`` slices out one worker's
    chunk and ``source_rows`` names the rows it came from (ascending).
    """

    def __init__(self, dest_workers: np.ndarray, num_workers: int):
        dest_workers = np.asarray(dest_workers, dtype=np.int64)
        self.num_workers = num_workers
        self.num_messages = len(dest_workers)
        # Stable sort groups rows by destination while preserving the
        # per-destination order: row ``_order[k]`` is written at buffer
        # position ``k`` (the "write position index").
        self._order = np.argsort(dest_workers, kind="stable")
        grouped = dest_workers[self._order]
        if len(grouped) and (grouped[0] < 0 or grouped[-1] >= num_workers):
            raise ValueError("destination worker out of range")
        self.offsets = np.searchsorted(grouped, np.arange(num_workers + 1))

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """Write ``rows`` into the buffer at their precomputed positions."""
        rows = np.asarray(rows)
        if len(rows) != self.num_messages:
            raise ValueError(
                f"buffer laid out for {self.num_messages} messages, got {len(rows)}"
            )
        return rows.take(self._order, axis=0)

    def chunk_slice(self, worker: int) -> slice:
        """Slice of the packed buffer holding ``worker``'s chunk."""
        return slice(int(self.offsets[worker]), int(self.offsets[worker + 1]))

    def chunk_for(self, packed: np.ndarray, worker: int) -> np.ndarray:
        return packed[self.chunk_slice(worker)]

    def chunk_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def source_rows(self, worker: int) -> np.ndarray:
        """Original row indices that land in ``worker``'s chunk."""
        return self._order[self.chunk_slice(worker)]


def pack_by_destination(
    rows: np.ndarray, dest_workers: np.ndarray, num_workers: int
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """One-shot convenience: group ``rows`` into per-destination chunks.

    Returns the packed array and the list of per-worker chunks (views).
    """
    buffer = PositionIndexedBuffer(dest_workers, num_workers)
    packed = buffer.scatter(rows)
    chunks = [buffer.chunk_for(packed, w) for w in range(num_workers)]
    return packed, chunks
