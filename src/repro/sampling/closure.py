"""Sampled mini-batch closures.

A :class:`SampledClosure` is the sampled analogue of an engine plan's
per-worker block stack: the chained :class:`~repro.core.blocks.LayerBlock`
list for one mini-batch, plus the bookkeeping the compiler and the
explain path need (frontier sizes, sampled-edge counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.blocks import LayerBlock


@dataclass
class SampledClosure:
    """One worker's sampled mini-batch, ready for compile + execute.

    ``blocks[l-1]`` computes layer ``l``; ``frontier_sizes`` runs top
    (seeds) to bottom (layer-1 inputs), so it has ``num_layers + 1``
    entries.
    """

    worker: int
    seeds: np.ndarray
    blocks: List[LayerBlock]
    num_sampled_edges: int
    frontier_sizes: List[int]

    @property
    def num_layers(self) -> int:
        return len(self.blocks)
