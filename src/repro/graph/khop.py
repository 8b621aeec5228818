"""K-hop dependency closures (Algorithm 2's BFS retrieval).

DepCache needs, for a worker's vertex set ``V_i``, the chain of in-
neighborhoods ``V_i = V^L ⊇-expansion V^{L-1} ... V^0`` together with
the per-layer in-edge sets.  These helpers compute that closure and the
derived quantities the cost model needs (per-dependency subtree sizes,
replication factors).

Two walks.  :func:`khop_closure` walks one vertex set (a partition)
with boolean masks over the vertex space.  :func:`khop_closures` walks
many seeds at once, each on its own: its frontiers are (seed, vertex)
keys, deduplicated by one sort per hop, so a stream of requests costs a
few array calls per hop instead of a few per seed.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Sequence, Tuple

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
    frontier = seeds
    edges_so_far = _EMPTY
    for _ in range(hops):
        # Only the new frontier needs expanding: the cumulative set's
        # other edges were already collected on earlier hops.
        _, sources, eids = csc.select(frontier)
        edges_so_far = np.sort(np.concatenate([edges_so_far, eids]))
        edge_layers.append(edges_so_far)
        fresh = np.zeros(num_vertices, dtype=bool)
        fresh[sources] = True
        fresh &= ~seen
        frontier = np.flatnonzero(fresh)
        seen |= fresh
        vertex_layers.append(np.flatnonzero(seen))
    return vertex_layers, edge_layers


class Closures(NamedTuple):
    """Every seed's :func:`khop_closure`, packed hop by hop.

    ``seeds`` is sorted unique.  Seed ``seeds[i]``'s ``vertex_layers[t]``
    is ``vertex_ids[t][vertex_ptr[t][i]:vertex_ptr[t][i + 1]]``, and its
    ``edge_layers[t]`` the same run of ``edge_ids[t]`` by ``edge_ptr[t]``.
    The id arrays are read-only, so every run is too.
    """

    seeds: np.ndarray
    vertex_ptr: List[np.ndarray]
    vertex_ids: List[np.ndarray]
    edge_ptr: List[np.ndarray]
    edge_ids: List[np.ndarray]

    def layers(self) -> Iterator[Tuple[List[np.ndarray], List[np.ndarray]]]:
        """``khop_closure(graph, [seed], hops)`` of each seed, in order."""
        vertex_runs = [_runs(ids, ptr) for ids, ptr in zip(self.vertex_ids, self.vertex_ptr)]
        edge_runs = [_runs(ids, ptr) for ids, ptr in zip(self.edge_ids, self.edge_ptr)]
        for i in range(len(self.seeds)):
            yield [runs[i] for runs in vertex_runs], [runs[i] for runs in edge_runs]


def _runs(ids: np.ndarray, ptr: np.ndarray) -> List[np.ndarray]:
    bounds = ptr.tolist()
    return [ids[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _packed(keys: np.ndarray, space: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Seed-major ``seed * space + id`` keys as (per-seed offsets, ids)."""
    ids = keys % space
    ids.flags.writeable = False
    return np.searchsorted(keys, np.arange(count + 1) * space), ids


def khop_closures(graph: Graph, seeds: np.ndarray, hops: int) -> Closures:
    """:func:`khop_closure` of each seed on its own, all walked at once.

    A frontier entry is a key ``i * V + v``: vertex ``v``, reached from
    ``seeds[i]``.  One ``csc.select`` per hop expands every seed's
    frontier, and one sort merges the (seed, source) keys it reaches
    into the layer so far; the keys the layer did not hold are the next
    frontier.  Keys sort seed-major, so each layer is every seed's
    sorted run in seed order, element for element what the one-seed
    walk returns.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    count = len(seeds)
    num_vertices = max(graph.num_vertices, 1)
    num_edges = max(graph.num_edges, 1)
    origin = np.arange(count, dtype=np.int64)
    frontier = seeds
    layer = origin * num_vertices + seeds
    vertex_keys = [layer]
    edge_keys: List[np.ndarray] = []
    edges = _EMPTY
    for _ in range(hops):
        counts, sources, eids = graph.csc.select(frontier)
        by = np.repeat(origin, counts)
        # A seed's new edges are the in-edges of vertices it had not
        # reached, so none is in its earlier layer.
        edges = np.sort(np.concatenate([edges, by * num_edges + eids]))
        edge_keys.append(edges)
        grown = sorted_unique(np.concatenate([layer, by * num_vertices + sources]))
        fresh = np.ones(len(grown), dtype=bool)
        fresh[np.searchsorted(grown, layer)] = False
        layer = grown
        vertex_keys.append(layer)
        origin, frontier = np.divmod(layer[fresh], num_vertices)
    vertex_ptr, vertex_ids = zip(*(_packed(k, num_vertices, count) for k in vertex_keys))
    edge_ptr, edge_ids = (
        zip(*(_packed(k, num_edges, count) for k in edge_keys)) if hops else ((), ())
    )
    return Closures(seeds, list(vertex_ptr), list(vertex_ids), list(edge_ptr), list(edge_ids))


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
