"""Micro-batching of concurrent inference requests.

Requests that arrive within a short window are coalesced into one
micro-batch: the batch executes a *single* forward over the union of
the members' k-hop closures, so overlapping frontiers (hot vertices,
shared neighborhoods) are computed once instead of per request --
the serving-side analogue of training's redundancy elimination.

Batch composition depends only on arrival times and the window/size
caps -- never on how the batch will be served (cache hits, mode,
faults) -- so sweeping the staleness bound or the serving mode replays
the exact same batch sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.serving.workload import Request


@dataclass(frozen=True)
class MicroBatch:
    """Requests dispatched together.

    ``dispatch_s`` is when the batch closes and execution begins: the
    window expiring (``first arrival + window``) or the size cap
    filling (the capping request's arrival), whichever is earlier.
    """

    requests: List[Request]
    dispatch_s: float

    @property
    def size(self) -> int:
        return len(self.requests)

    def vertices(self) -> List[int]:
        """Distinct requested vertices, keyed by earliest arrival.

        Order follows first appearance, so index 0's arrival is the
        batch's oldest request for that vertex -- the timestamp the
        server uses as the vertex's staleness key.
        """
        seen = {}
        for r in self.requests:
            if r.vertex not in seen:
                seen[r.vertex] = r
        return list(seen)


class MicroBatcher:
    """Window + size-capped batcher over a time-ordered request stream.

    ``window_s = 0`` degrades to one batch per request (the unbatched
    baseline); ``max_batch = 1`` likewise.
    """

    def __init__(self, window_s: float = 0.002, max_batch: int = 32):
        if window_s < 0:
            raise ValueError("window_s must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.window_s = window_s
        self.max_batch = max_batch

    def batches(self, requests: Sequence[Request]) -> List[MicroBatch]:
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
        out: List[MicroBatch] = []
        current: List[Request] = []
        close = 0.0
        for r in ordered:
            if not current:
                current = [r]
                close = r.arrival_s + self.window_s
                continue
            if r.arrival_s <= close and len(current) < self.max_batch:
                current.append(r)
                continue
            out.append(self._finish(current, close))
            current = [r]
            close = r.arrival_s + self.window_s
        if current:
            out.append(self._finish(current, close))
        return out

    def _finish(self, batch: List[Request], close: float) -> MicroBatch:
        if len(batch) >= self.max_batch:
            dispatch = batch[-1].arrival_s  # size cap closed it early
        else:
            dispatch = close
        return MicroBatch(requests=list(batch), dispatch_s=dispatch)
