"""Metis-like partitioning: multi-seed BFS growth + greedy refinement.

A faithful Metis implementation (multilevel coarsening) is out of scope;
this partitioner reproduces the *behaviour* Figure 15 needs: a
balanced, low-edge-cut partitioning that is better than chunking on
locality-poor graphs.  It grows ``m`` regions from spread-out seeds by
BFS and then runs boundary-vertex Kernighan-Lin-style refinement passes
that move vertices to the neighboring part with the largest edge-cut
gain, subject to a balance constraint.
"""

from __future__ import annotations

from collections import deque
from typing import List

import numpy as np

from repro.graph.graph import Graph
from repro.partition.base import Partitioning

#: Boundary refinement passes after the BFS growth (fewer if one moves
#: nothing).
REFINEMENT_PASSES = 4
#: The balance cap: no part exceeds ``SLACK * |V| / num_parts`` vertices.
SLACK = 1.05


def metis_like_partition(graph: Graph, num_parts: int, seed: int = 0) -> Partitioning:
    """Grow ``m`` BFS regions, then refine the boundary greedily."""
    n = graph.num_vertices
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    if num_parts > n:
        raise ValueError("more parts than vertices")
    assignment = _bfs_grow(graph, num_parts, seed)
    capacity = int(np.ceil(SLACK * n / num_parts))
    for _ in range(REFINEMENT_PASSES):
        moved = _refine_pass(graph, assignment, num_parts, capacity)
        if moved == 0:
            break
    return Partitioning(assignment, num_parts=num_parts, method="metis")


def _undirected_neighbors(graph: Graph, v: int) -> np.ndarray:
    return np.concatenate([graph.csr.neighbors(v), graph.csc.neighbors(v)])


def _bfs_grow(graph: Graph, num_parts: int, seed: int) -> np.ndarray:
    """Round-robin BFS from ``num_parts`` spread seeds (balanced growth)."""
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    assignment = np.full(n, -1, dtype=np.int64)
    seeds = _spread_seeds(graph, num_parts, rng)
    queues: List[deque] = [deque([int(s)]) for s in seeds]
    for part, s in enumerate(seeds):
        assignment[s] = part
    sizes = np.ones(num_parts, dtype=np.int64)
    target = int(np.ceil(n / num_parts))
    active = True
    while active:
        active = False
        # Smallest part grows first, keeping sizes near-equal.
        for part in np.argsort(sizes):
            queue = queues[part]
            grown = False
            while queue and not grown:
                v = queue.popleft()
                for u in _undirected_neighbors(graph, v):
                    if assignment[u] < 0:
                        assignment[u] = part
                        sizes[part] += 1
                        queue.append(int(u))
                        grown = True
                        if sizes[part] >= target:
                            break
                if grown:
                    queue.appendleft(v)  # v may have more unvisited neighbors
            if grown:
                active = True
    # Unreached vertices (isolated components): fill smallest parts.
    for v in np.where(assignment < 0)[0]:
        part = int(np.argmin(sizes))
        assignment[v] = part
        sizes[part] += 1
    return assignment


def _spread_seeds(graph: Graph, num_parts: int, rng) -> np.ndarray:
    """Pick far-apart seeds by repeated farthest-point BFS."""
    n = graph.num_vertices
    seeds = [int(rng.integers(n))]
    for _ in range(num_parts - 1):
        dist = _multi_source_bfs(graph, seeds)
        # Unreached vertices (inf) are the farthest possible.
        candidate = int(np.argmax(np.where(np.isfinite(dist), dist, np.inf)))
        if candidate in seeds:
            candidate = int(rng.integers(n))
        seeds.append(candidate)
    return np.asarray(seeds, dtype=np.int64)


def _multi_source_bfs(graph: Graph, sources: List[int]) -> np.ndarray:
    n = graph.num_vertices
    dist = np.full(n, np.inf)
    queue = deque()
    for s in sources:
        dist[s] = 0.0
        queue.append(s)
    while queue:
        v = queue.popleft()
        for u in _undirected_neighbors(graph, v):
            if dist[u] == np.inf:
                dist[u] = dist[v] + 1.0
                queue.append(int(u))
    return dist


def _refine_pass(
    graph: Graph, assignment: np.ndarray, num_parts: int, capacity: int
) -> int:
    """One KL-style boundary sweep; returns the number of moves made."""
    sizes = np.bincount(assignment, minlength=num_parts)
    moved = 0
    boundary = np.where(
        assignment[graph.src] != assignment[graph.dst]
    )[0]
    candidates = np.unique(
        np.concatenate([graph.src[boundary], graph.dst[boundary]])
    )
    for v in candidates:
        home = assignment[v]
        if sizes[home] <= 1:
            continue
        neighbor_parts = assignment[_undirected_neighbors(graph, int(v))]
        counts = np.bincount(neighbor_parts, minlength=num_parts)
        counts_home = counts[home]
        counts[home] = -1  # never "move" to the current part
        best = int(np.argmax(counts))
        gain = counts[best] - counts_home
        if gain > 0 and sizes[best] < capacity:
            assignment[v] = best
            sizes[home] -= 1
            sizes[best] += 1
            moved += 1
    return moved
