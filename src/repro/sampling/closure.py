"""Sampled mini-batch closures and cross-batch reuse state.

A :class:`SampledClosure` is the sampled analogue of an engine plan's
per-worker block stack: the chained :class:`~repro.core.blocks.LayerBlock`
list for one mini-batch, plus the bookkeeping the compiler and the
explain path need (frontier sizes, sampled-edge counts, how much of the
bottom layer was reused from the previous batch).

:class:`ReuseState` carries the *realized* bottom-layer neighbor lists
of the previous mini-batch in CSR form.  The batch-dependency knob
kappa re-serves those lists for a hashed fraction of the new frontier;
because the reuse decision for a vertex is keyed by ``(seed, epoch,
vertex)`` only — not by run history — the reused sets are nested across
kappa values, which is what makes comm bytes monotone in kappa.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.blocks import LayerBlock
from repro.utils.ranges import expand_ranges

_EMPTY = np.empty(0, dtype=np.int64)


class ReuseState:
    """Previous batch's realized bottom-layer sample for one worker."""

    def __init__(self) -> None:
        self.vertex_ids: np.ndarray = _EMPTY  # sorted dst vertices
        self.indptr: np.ndarray = np.zeros(1, dtype=np.int64)
        self.srcs: np.ndarray = _EMPTY
        self.eids: np.ndarray = _EMPTY
        self.scales: Optional[np.ndarray] = None

    @property
    def has_lists(self) -> bool:
        return len(self.vertex_ids) > 0

    def contains(self, vertices: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``vertices`` have a stored list."""
        if not self.has_lists:
            return np.zeros(len(vertices), dtype=bool)
        pos = np.searchsorted(self.vertex_ids, vertices)
        pos = np.minimum(pos, len(self.vertex_ids) - 1)
        return self.vertex_ids[pos] == vertices

    def lists_for(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Stored ``(src, counts, eids, scales)`` runs for ``vertices``
        (each of which must satisfy :meth:`contains`), one run per
        vertex in the order given."""
        pos = np.searchsorted(self.vertex_ids, vertices)
        counts = self.indptr[pos + 1] - self.indptr[pos]
        idx = expand_ranges(self.indptr[pos], counts)
        scales = None if self.scales is None else self.scales[idx]
        return self.srcs[idx], counts, self.eids[idx], scales

    def replace(
        self,
        vertices: np.ndarray,
        counts: np.ndarray,
        src: np.ndarray,
        eids: np.ndarray,
        scales: Optional[np.ndarray],
    ) -> None:
        """Overwrite with this batch's realized bottom-layer sample:
        runs of ``counts[i]`` edges for the sorted ``vertices[i]``."""
        listed = counts > 0
        self.vertex_ids = vertices[listed]
        self.indptr = np.concatenate(([0], np.cumsum(counts[listed])))
        self.srcs = src
        self.eids = eids
        self.scales = scales


@dataclass
class SampledClosure:
    """One worker's sampled mini-batch, ready for compile + execute.

    ``blocks[l-1]`` computes layer ``l``; ``frontier_sizes`` runs top
    (seeds) to bottom (layer-1 inputs), so it has ``num_layers + 1``
    entries.  ``reused_srcs`` is the sorted union of source vertices
    contributed by bottom-layer vertices served from the previous
    batch's lists — those rows are guaranteed resident from the prior
    round, so the compiler credits them against the feature exchange.
    """

    worker: int
    seeds: np.ndarray
    blocks: List[LayerBlock]
    num_sampled_edges: int
    frontier_sizes: List[int]
    reused_vertices: int = 0
    reuse_eligible: int = 0
    reused_srcs: np.ndarray = field(default_factory=lambda: _EMPTY)

    @property
    def num_layers(self) -> int:
        return len(self.blocks)

    @property
    def reuse_fraction(self) -> float:
        bottom = self.frontier_sizes[-2] if len(self.frontier_sizes) >= 2 else 0
        return self.reused_vertices / bottom if bottom else 0.0
