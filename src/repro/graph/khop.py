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
few array calls per hop instead of a few per seed.  It stops at the
last compute layer (nothing that prices or charges a closure reads its
input set) and hands each layer's in-edges over as CSC runs, unsorted.
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
    """Every seed's compute layers and their in-edges, packed layer by layer.

    ``seeds`` is sorted unique.  Seed ``seeds[i]``'s layer ``t`` (for
    ``t < hops``) is ``vertex_ids[t][vertex_ptr[t][i]:vertex_ptr[t][i + 1]]``,
    its ``khop_closure(graph, [seed], hops)`` ``vertex_layers[t]``.
    ``in_edges[t]`` is ``graph.csc.select(vertex_ids[t])``: each compute
    vertex's in-edge count, then the sources and ids of those edges,
    vertex by vertex.  A seed's vertices are one run, so its edges are
    one run too: its ``edge_layers[t]``, in CSC order.  The vertex id
    arrays are read-only, so every run is too.
    """

    seeds: np.ndarray
    vertex_ptr: List[np.ndarray]
    vertex_ids: List[np.ndarray]
    in_edges: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]

    def layers(self) -> Iterator[List[np.ndarray]]:
        """Each seed's compute layers, ``khop_closure(graph, [seed],
        hops)[0][:hops]``, in order."""
        runs = [_runs(ids, ptr) for ids, ptr in zip(self.vertex_ids, self.vertex_ptr)]
        for i in range(len(self.seeds)):
            yield [layer_runs[i] for layer_runs in runs]


def _runs(ids: np.ndarray, ptr: np.ndarray) -> List[np.ndarray]:
    bounds = ptr.tolist()
    return [ids[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def khop_closures(graph: Graph, seeds: np.ndarray, hops: int) -> Closures:
    """The compute layers of :func:`khop_closure` for each seed on its
    own, all walked at once, with their in-edges: ``vertex_layers[:hops]``
    and the edges of every ``edge_layers[t]``, but not the input set
    ``vertex_layers[hops]``.

    A layer entry is a key ``i * V + v``: vertex ``v``, reached from
    ``seeds[i]``.  One ``csc.select`` per hop reads the in-edges of
    every seed's layer, and one sort merges the (seed, source) keys they
    reach into the next layer.  The last hop only selects: its sources
    would be the input set.  Keys sort seed-major, so each layer is
    every seed's sorted run in seed order, element for element what the
    one-seed walk returns.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    count = len(seeds)
    num_vertices = max(graph.num_vertices, 1)
    layer = np.arange(count, dtype=np.int64) * num_vertices + seeds
    vertex_ptr: List[np.ndarray] = []
    vertex_ids: List[np.ndarray] = []
    in_edges: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for hop in range(hops):
        origin, ids = np.divmod(layer, num_vertices)
        ids.flags.writeable = False
        vertex_ptr.append(np.searchsorted(layer, np.arange(count + 1) * num_vertices))
        vertex_ids.append(ids)
        in_edges.append(graph.csc.select(ids))
        if hop < hops - 1:
            counts, sources, _ = in_edges[-1]
            layer = sorted_unique(
                np.concatenate([layer, np.repeat(origin, counts) * num_vertices + sources])
            )
    return Closures(seeds, vertex_ptr, vertex_ids, in_edges)


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
