"""Fennel streaming partitioning (Tsourakakis et al., WSDM 2014).

Vertices arrive in a stream; each is greedily placed on the worker
maximising ``|N(v) ∩ P_i| - alpha * gamma * |P_i|^(gamma-1)``, i.e.
neighbor co-location reward minus a superlinear size penalty.  A hard
capacity cap keeps the result loadable.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.partition.base import Partitioning

#: The size penalty's exponent (the paper's recommended 1.5).
GAMMA = 1.5
#: The balance cap: no worker exceeds ``SLACK * |V| / num_parts``
#: vertices.
SLACK = 1.1


def fennel_partition(graph: Graph, num_parts: int, seed: int = 0) -> Partitioning:
    """Stream vertices in BFS order (which gives Fennel its locality
    advantage) and place each on the best-scoring worker."""
    n = graph.num_vertices
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    if num_parts > n:
        raise ValueError("more parts than vertices")
    m = graph.num_edges
    alpha = (m * num_parts ** (GAMMA - 1.0)) / max(n ** GAMMA, 1.0) + 1e-9
    capacity = int(np.ceil(SLACK * n / num_parts))

    stream = _bfs_order(graph, seed)
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_parts, dtype=np.int64)
    csr, csc = graph.csr, graph.csc

    for v in stream:
        # Count already-placed neighbors (both edge directions matter
        # for co-location).
        neighbor_ids = np.concatenate([csr.neighbors(v), csc.neighbors(v)])
        placed = assignment[neighbor_ids]
        placed = placed[placed >= 0]
        reward = np.bincount(placed, minlength=num_parts).astype(np.float64)
        penalty = alpha * GAMMA * np.power(sizes.astype(np.float64), GAMMA - 1.0)
        score = reward - penalty
        score[sizes >= capacity] = -np.inf
        best = int(np.argmax(score))
        assignment[v] = best
        sizes[best] += 1
    return Partitioning(assignment, num_parts=num_parts, method="fennel")


def _bfs_order(graph: Graph, seed: int) -> np.ndarray:
    """BFS over the undirected skeleton, restarting on new components."""
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    csr, csc = graph.csr, graph.csc
    idx = 0
    for start in rng.permutation(n):
        if visited[start]:
            continue
        queue = [int(start)]
        visited[start] = True
        while queue:
            v = queue.pop(0)
            order[idx] = v
            idx += 1
            neighbors = np.concatenate([csr.neighbors(v), csc.neighbors(v)])
            for u in neighbors:
                if not visited[u]:
                    visited[u] = True
                    queue.append(int(u))
    return order
