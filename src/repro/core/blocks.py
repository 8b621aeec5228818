"""Layer blocks: the per-worker, per-layer unit of GNN computation.

A :class:`LayerBlock` is what a worker executes at one layer: the set
of vertices whose representations it *computes*, the set whose previous
-layer representations it needs as *inputs*, and the induced edge set
expressed as positions into those two row spaces.  Engines differ only
in how they choose the compute sets (owned vertices for DepComm, k-hop
closures for DepCache, a cost-model mixture for Hybrid) and in where
the input rows come from (local memory vs the network); the block
itself -- and therefore the numerical result -- is identical.
"""

from __future__ import annotations

from functools import cached_property
from typing import Tuple

import numpy as np

from repro.graph.graph import Graph


class LayerBlock:
    """One layer's computation unit on one worker.

    A block is a function of its compute set alone: consecutive layers
    that compute the same vertices share one block (under DepComm every
    layer does), so it carries no layer number.

    Edges are stored as *runs*: the edges of the ``i``-th compute vertex
    are the ``edge_counts[i]`` consecutive entries after those of rows
    ``0 .. i-1``, so edges are grouped by destination row, rows
    ascending, each row in its own edge order.  Every builder keeps this
    invariant (CSC order for a full block, the sampler's per-vertex
    draws for a sampled one).

    Attributes
    ----------
    compute_vertices:
        Global ids whose layer-``l`` representation this block produces
        (sorted ascending).
    input_vertices:
        Global ids whose layer-``l-1`` representation the block reads
        (sorted ascending; always a superset of ``compute_vertices`` so
        self terms / attention destinations are available).
    edge_src_global / edge_ids:
        Per-edge source vertex id and graph edge id.
    edge_counts:
        Per compute vertex, the length of its run of edges.
    weight_source:
        The graph's ``edge_weight`` when the block was built.

    Derived on first read, then kept (a builder pays for none of them,
    and a block nobody reads them from never does):

    edge_src_pos / edge_dst_pos:
        Per-edge positions: source row in the *input* space
        (``input_vertices.searchsorted(edge_src_global)``), destination
        row in the *output* (compute) space (``i`` repeated
        ``edge_counts[i]`` times).
    edge_weight:
        Per-edge scalar weights (GCN normalisation),
        ``weight_source[edge_ids]``; a reweighting assigns it instead.
    compute_pos_in_inputs:
        For each compute vertex, its row in the input space (used for
        self terms and attention destinations).
    edge_weight_rescaled:
        Set by whoever folds a per-edge factor into ``edge_weight`` (the
        samplers' LADIES rescale): the weights are then no longer
        ``graph.edge_weight[edge_ids]``, so nothing aggregated with them
        is a constant of the graph.
    """

    edge_weight_rescaled = False

    def __init__(
        self,
        compute_vertices: np.ndarray,
        input_vertices: np.ndarray,
        edge_src_global: np.ndarray,
        edge_ids: np.ndarray,
        edge_counts: np.ndarray,
        weight_source: np.ndarray,
    ):
        self.compute_vertices = compute_vertices
        self.input_vertices = input_vertices
        self.edge_src_global = edge_src_global
        self.edge_ids = edge_ids
        self.edge_counts = edge_counts
        self.weight_source = weight_source

    @cached_property
    def edge_dst_pos(self) -> np.ndarray:
        return _run_positions(self.edge_counts)

    @cached_property
    def edge_src_pos(self) -> np.ndarray:
        return _positions(self.input_vertices, self.edge_src_global)

    @cached_property
    def compute_pos_in_inputs(self) -> np.ndarray:
        return _positions(self.input_vertices, self.compute_vertices)

    @cached_property
    def edge_weight(self) -> np.ndarray:
        return self.weight_source[self.edge_ids]

    @property
    def num_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def num_inputs(self) -> int:
        return len(self.input_vertices)

    @property
    def num_outputs(self) -> int:
        return len(self.compute_vertices)

    def __repr__(self) -> str:
        return (
            f"LayerBlock(out={self.num_outputs}, "
            f"in={self.num_inputs}, edges={self.num_edges})"
        )


def _mask_union(num_vertices: int, *pieces: np.ndarray) -> np.ndarray:
    """Sorted unique union of id arrays via one boolean mask scan.

    Element-identical to ``np.unique(np.concatenate(pieces))`` for ids
    in ``[0, num_vertices)`` but O(V + total) instead of a hash/sort.
    """
    mask = np.zeros(num_vertices, dtype=bool)
    for piece in pieces:
        mask[piece] = True
    return np.flatnonzero(mask)


def _is_sorted_unique(ids: np.ndarray) -> bool:
    return bool(
        ids.ndim == 1
        and ids.dtype == np.int64
        and (len(ids) < 2 or (ids[1:] > ids[:-1]).all())
    )


def build_block(graph: Graph, compute_vertices: np.ndarray, _layer=None) -> LayerBlock:
    """Build the block computing the next layer for ``compute_vertices``.

    The edge set is every in-edge of a compute vertex; the input space
    is the union of those edges' sources with the compute set itself.
    CSC order groups the edges by destination, so the i-th compute
    vertex's edges are one run of ``counts[i]``.

    Results are memoised per graph by compute set: a plan's layers with
    equal compute sets, and serving and replay's hot request batches,
    share one instance, as the block is immutable once built.  A third
    argument (a layer number, which ``benchmarks/e2e/checks.py`` still
    passes) is ignored.
    """
    compute_vertices = _mask_union(
        graph.num_vertices, np.asarray(compute_vertices, dtype=np.int64)
    )
    if len(compute_vertices) == 0:
        raise ValueError("a block needs at least one compute vertex")
    cache = graph.__dict__.setdefault("_block_cache", {})
    key = compute_vertices.tobytes()
    hit = cache.get(key)
    if hit is not None:
        return hit
    counts, srcs, eids = graph.csc.select(compute_vertices)
    block = LayerBlock(
        compute_vertices,
        _mask_union(graph.num_vertices, srcs, compute_vertices),
        srcs,
        eids,
        counts,
        graph.edge_weight,
    )
    if len(cache) >= _BLOCK_CACHE_CAP:
        cache.pop(next(iter(cache)))
    cache[key] = block
    return block


def _run_positions(counts: np.ndarray) -> np.ndarray:
    """Row ``i`` repeated ``counts[i]`` times: the destination position
    of every edge of a block (its edges are runs, rows ascending)."""
    return np.repeat(np.arange(len(counts), dtype=np.int64), counts)


_BLOCK_CACHE_CAP = 256


def _positions(sorted_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``np.searchsorted(sorted_ids, ids)`` where every id is one of the
    sorted unique ``sorted_ids``: each id's index, read off a table
    indexed by id -- two linear passes, where a binary search per id
    costs a cache miss per step (on a closure-memo fill block, 17 k
    edges into 10 k inputs: 2.0 ms against 0.05 ms).  Only the table's
    entries for ``sorted_ids`` are written or read.
    """
    if len(sorted_ids) == 0:
        return np.empty(0, dtype=np.int64)
    table = np.empty(int(sorted_ids[-1]) + 1, dtype=np.int64)
    table[sorted_ids] = np.arange(len(sorted_ids))
    return table[ids]


def closure_block(
    graph: Graph,
    compute_vertices: np.ndarray,
    input_vertices: np.ndarray,
    in_edges: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> LayerBlock:
    """The block between two consecutive layers of a k-hop closure.

    ``compute_vertices`` and ``input_vertices`` are sorted unique, and
    ``input_vertices`` is ``compute_vertices`` plus the sources of its
    in-edges -- consecutive ``vertex_layers`` of
    :func:`~repro.graph.khop.khop_closure`.  That *is* the input space
    :func:`build_block` derives, so the block is field for field the
    same (same CSC edge order, hence the same per-row summation order).
    ``in_edges`` is ``graph.csc.select(compute_vertices)``, passed in so
    that a walk which selected the edges to find ``input_vertices`` does
    not select them twice.
    """
    counts, srcs, eids = in_edges
    return LayerBlock(
        compute_vertices, input_vertices, srcs, eids, counts, graph.edge_weight
    )


def build_block_from_edges(
    graph: Graph,
    compute_vertices: np.ndarray,
    src: np.ndarray,
    counts: np.ndarray,
    edge_ids: np.ndarray,
) -> LayerBlock:
    """Build a block over an explicit (sampled) edge list, given as runs.

    Used by the sampling engine: the edge set is a sampled subset of the
    in-edges of ``compute_vertices`` rather than all of them.
    ``compute_vertices`` is sorted unique, and its ``i``-th vertex's
    edges are the ``counts[i]`` consecutive entries of ``src`` /
    ``edge_ids`` after those of the vertices before it.
    """
    compute_vertices = np.asarray(compute_vertices, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    if not _is_sorted_unique(compute_vertices):
        raise ValueError("compute_vertices must be sorted unique")
    if len(counts) != len(compute_vertices):
        raise ValueError(
            f"counts has {len(counts)} entries for "
            f"{len(compute_vertices)} compute vertices"
        )
    if len(counts) and counts.min() < 0:
        raise ValueError(f"counts has a negative entry ({int(counts.min())})")
    if int(counts.sum()) != len(src):
        raise ValueError(f"counts sums to {int(counts.sum())} for {len(src)} edges")
    if len(edge_ids) != len(src):
        raise ValueError(f"{len(edge_ids)} edge ids for {len(src)} edges")
    return LayerBlock(
        compute_vertices,
        _mask_union(graph.num_vertices, src, compute_vertices),
        src,
        edge_ids,
        counts,
        graph.edge_weight,
    )
