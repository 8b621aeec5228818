"""Chunk-based partitioning (Gemini-style contiguous id ranges).

The paper's default partitioner (Section 3, "Graph Partitioning"):
vertices are split into ``m`` contiguous id ranges, balanced like
Gemini's on vertices and in-edges together so that workers get
comparable computational load on skewed graphs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.partition.base import Partitioning


def chunk_partition(graph: Graph, num_parts: int) -> Partitioning:
    """Split vertex ids into ``m`` contiguous chunks.

    The chunks equalise Gemini's load ``alpha * |V| + |E_in|`` with
    ``alpha`` = average degree, balancing vertices and edges both.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    if num_parts > graph.num_vertices:
        raise ValueError("more parts than vertices")
    in_deg = graph.in_degrees().astype(np.float64)
    load = max(graph.avg_degree, 1.0) + in_deg
    cumulative = np.cumsum(load)
    total = cumulative[-1]
    # Boundary b_k = first vertex whose cumulative load exceeds k/m.
    targets = total * np.arange(1, num_parts) / num_parts
    boundaries = np.searchsorted(cumulative, targets, side="left").tolist()
    n = graph.num_vertices
    # Force strictly increasing boundaries so every chunk is non-empty,
    # while leaving room for the chunks that follow.
    fixed = []
    previous = 0
    for i, b in enumerate(boundaries):
        remaining_chunks = num_parts - 1 - i
        b = max(b, previous + 1)
        b = min(b, n - remaining_chunks)
        fixed.append(b)
        previous = b
    assignment = np.zeros(n, dtype=np.int64)
    start = 0
    for i, end in enumerate(fixed + [n]):
        assignment[start:end] = i
        start = end
    return Partitioning(assignment, num_parts=num_parts, method="chunk")
