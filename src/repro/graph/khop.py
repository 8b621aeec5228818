"""K-hop dependency closures (Algorithm 2's BFS retrieval).

DepCache needs, for a worker's vertex set ``V_i``, the chain of in-
neighborhoods ``V_i = V^L ⊇-expansion V^{L-1} ... V^0`` together with
the per-layer in-edge sets.  These helpers compute that closure and the
derived quantities the cost model needs (per-dependency subtree sizes,
replication factors).

A hop costs what it reaches: the frontier's *unseen* sources are
deduplicated by a sort and merged into the cumulative layer.  The one
vertex-sized array a small closure allocates is the zeroed ``seen``
mask, which it only touches at the vertices it reaches; no hop scans
it.  Once a hop reaches a number of sources comparable to the vertex
count (a partition's closure, or one seed on a dense graph) the sort
loses to a few passes over boolean masks, so ``khop_closure`` switches
per hop on the size it observes.  Both forms yield the same sorted
unique arrays, element-identical to the old ``union1d`` chain.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.utils.ranges import sorted_unique

_EMPTY = np.empty(0, dtype=np.int64)


def khop_closure(
    graph: Graph, seeds: np.ndarray, hops: int
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """BFS closure of in-neighborhoods.

    Returns ``(vertex_layers, edge_layers)`` where ``vertex_layers[t]``
    is the union of ``seeds`` with all vertices reachable by following
    up to ``t`` in-edges backwards (so ``vertex_layers[0]`` is the seed
    set), and ``edge_layers[t]`` holds the edge ids of all in-edges of
    ``vertex_layers[t]`` (the edges executed at layer ``L - t``).
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    vertex_layers = [seeds]
    edge_layers: List[np.ndarray] = []
    csc = graph.csc
    num_vertices = graph.num_vertices
    seen = np.zeros(num_vertices, dtype=bool)
    seen[seeds] = True
    frontier = layer = seeds
    edges_so_far = _EMPTY
    for _ in range(hops):
        # Only the new frontier needs expanding: the cumulative set's
        # other edges were already collected on earlier hops.
        _, sources, eids = csc.select(frontier)
        edges_so_far = np.sort(np.concatenate([edges_so_far, eids]))
        edge_layers.append(edges_so_far)
        if 8 * len(sources) < num_vertices:
            # Sorting the reached sources beats the mask scans below up
            # to V/8..V/5 of them (V = 41k and 400k).  Either form alone
            # loses where the other is used: one seed on social-large
            # (every serve_social hop is on this side) 75 vs 110 us with
            # masks only; sort only, a partition's closure there 13.3 vs
            # 10.3 ms (`repro analyze` 146 vs 113 ms) and one seed on
            # reddit, V = 600, 270 vs 186 us (docs/performance.md).
            frontier = sorted_unique(sources[~seen[sources]])
            seen[frontier] = True
            layer = np.sort(np.concatenate([layer, frontier]))
        else:
            fresh = np.zeros(num_vertices, dtype=bool)
            fresh[sources] = True
            fresh &= ~seen
            frontier = np.flatnonzero(fresh)
            seen |= fresh
            layer = np.flatnonzero(seen)
        vertex_layers.append(layer)
    return vertex_layers, edge_layers


def dependency_layers(
    graph: Graph, owned: np.ndarray, num_layers: int
) -> List[np.ndarray]:
    """Remote dependent neighbors per layer (the paper's ``D_i^l``).

    ``owned`` is the worker's vertex set ``V_i``.  The returned list is
    indexed ``[l-1]`` for layers ``l = 1..num_layers``: entry ``l-1``
    holds the remote vertices whose layer-``(l-1)`` representation the
    worker needs as input to its layer-``l`` computation, assuming all
    deeper dependencies were handled by communication (each layer's
    frontier is the direct in-neighborhood of ``V_i`` in that case).

    With pure DepComm every layer has the same dependency set --- the
    remote direct in-neighbors of ``V_i`` --- which is exactly what this
    returns for each layer.
    """
    owned = np.unique(np.asarray(owned, dtype=np.int64))
    owned_mask = np.zeros(graph.num_vertices, dtype=bool)
    owned_mask[owned] = True
    _, sources, _ = graph.csc.select(owned)
    remote_mask = np.zeros(graph.num_vertices, dtype=bool)
    remote_mask[sources] = True
    remote_mask &= ~owned_mask
    remote = np.flatnonzero(remote_mask)
    return [remote.copy() for _ in range(num_layers)]


def limited_bfs_in(
    graph: Graph, roots: Sequence[int], depth: int
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-step in-BFS from ``roots`` (not cumulative).

    Returns ``(vertex_steps, edge_steps)``: ``vertex_steps[0]`` is the
    root set; ``vertex_steps[t]`` the frontier of new vertices first
    reached at step ``t``; ``edge_steps[t]`` the in-edges traversed at
    step ``t+1`` (in-edges of everything seen so far at that depth).
    Used by the cost model to size a dependency's recomputation subtree.
    """
    roots = np.unique(np.asarray(roots, dtype=np.int64))
    seen = np.zeros(graph.num_vertices, dtype=bool)
    seen[roots] = True
    vertex_steps = [roots]
    edge_steps: List[np.ndarray] = []
    frontier = roots
    csc = graph.csc
    for _ in range(depth):
        _, sources, eids = csc.select(frontier)
        edge_steps.append(eids)
        new_mask = np.zeros(graph.num_vertices, dtype=bool)
        new_mask[sources] = True
        new_mask &= ~seen
        new = np.flatnonzero(new_mask)
        seen |= new_mask
        vertex_steps.append(new)
        frontier = new
        if len(new) == 0 and len(eids) == 0:
            # Keep filling with empties so callers can index by depth.
            for _ in range(depth - len(edge_steps)):
                edge_steps.append(np.empty(0, dtype=np.int64))
                vertex_steps.append(np.empty(0, dtype=np.int64))
            break
    return vertex_steps, edge_steps


def replication_factor(
    graph: Graph, parts: Sequence[np.ndarray], hops: int
) -> float:
    """Average number of workers holding each vertex under DepCache.

    A replication factor of 1.0 means no redundancy; ``m`` means every
    worker caches the whole graph (what happens on dense graphs like
    Reddit, and why DepCache loses there).
    """
    total = 0
    for part in parts:
        layers, _ = khop_closure(graph, part, hops)
        total += len(layers[-1])
    return total / max(graph.num_vertices, 1)
