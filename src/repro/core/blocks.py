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

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graph.graph import Graph


@dataclass
class LayerBlock:
    """One layer's computation unit on one worker.

    Attributes
    ----------
    layer_index:
        1-based layer number ``l`` (computes ``h^l`` from ``h^{l-1}``).
    compute_vertices:
        Global ids whose layer-``l`` representation this block produces
        (sorted ascending).
    input_vertices:
        Global ids whose layer-``l-1`` representation the block reads
        (sorted ascending; always a superset of ``compute_vertices`` so
        self terms / attention destinations are available).
    edge_src_pos / edge_dst_pos:
        Per-edge positions: source row in the *input* space, destination
        row in the *output* (compute) space.
    edge_weight:
        Per-edge scalar weights (GCN normalisation).
    compute_pos_in_inputs:
        For each compute vertex, its row in the input space (used for
        self terms and attention destinations).
    edge_weight_rescaled:
        Set by whoever folds a per-edge factor into ``edge_weight`` (the
        samplers' LADIES rescale): the weights are then no longer
        ``graph.edge_weight[edge_ids]``, so nothing aggregated with them
        is a constant of the graph.
    """

    layer_index: int
    compute_vertices: np.ndarray
    input_vertices: np.ndarray
    edge_src_pos: np.ndarray
    edge_dst_pos: np.ndarray
    edge_weight: np.ndarray
    compute_pos_in_inputs: np.ndarray
    edge_src_global: np.ndarray
    edge_ids: np.ndarray
    edge_weight_rescaled: bool = False

    @property
    def num_edges(self) -> int:
        return len(self.edge_src_pos)

    @property
    def num_inputs(self) -> int:
        return len(self.input_vertices)

    @property
    def num_outputs(self) -> int:
        return len(self.compute_vertices)

    def __repr__(self) -> str:
        return (
            f"LayerBlock(l={self.layer_index}, out={self.num_outputs}, "
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


def _space(num_vertices: int, *pieces: np.ndarray):
    """A sorted-unique row space: ``(ids, mask, rows)``.

    ``rows`` maps a present global id to its row in ``ids`` via one
    cumulative scan of the membership mask (``rows[id]`` is undefined
    for absent ids — check ``mask`` first).
    """
    mask = np.zeros(num_vertices, dtype=bool)
    if len(pieces) == 1 and _is_sorted_unique(pieces[0]):
        # Already a sorted id space: skip the O(V) flatnonzero scan.
        ids = pieces[0]
        mask[ids] = True
    else:
        for piece in pieces:
            mask[piece] = True
        ids = np.flatnonzero(mask)
    rows = np.empty(num_vertices, dtype=np.int64)
    rows[ids] = np.arange(len(ids), dtype=np.int64)
    return ids, mask, rows


def _is_sorted_unique(ids: np.ndarray) -> bool:
    return bool(
        ids.ndim == 1
        and ids.dtype == np.int64
        and (len(ids) < 2 or (ids[1:] > ids[:-1]).all())
    )


def build_block(
    graph: Graph,
    compute_vertices: np.ndarray,
    layer_index: int,
) -> LayerBlock:
    """Build the block computing ``h^l`` for ``compute_vertices``.

    The edge set is every in-edge of a compute vertex; the input space
    is the union of those edges' sources with the compute set itself.

    Results are memoised per graph in a small keyed cache: serving and
    replay rebuild the same (layer, compute set) blocks for every hot
    request batch, and the block is immutable once built, so identical
    keys can share one instance.
    """
    compute_vertices = _mask_union(
        graph.num_vertices, np.asarray(compute_vertices, dtype=np.int64)
    )
    if len(compute_vertices) == 0:
        raise ValueError("a block needs at least one compute vertex")
    cache = graph.__dict__.setdefault("_block_cache", {})
    key = (int(layer_index), compute_vertices.tobytes())
    hit = cache.get(key)
    if hit is not None:
        return hit
    dsts, srcs, eids = graph.csc.select(compute_vertices)
    input_vertices, _, input_rows = _space(
        graph.num_vertices, srcs, compute_vertices
    )
    _, _, output_rows = _space(graph.num_vertices, compute_vertices)

    block = LayerBlock(
        layer_index=layer_index,
        compute_vertices=compute_vertices,
        input_vertices=input_vertices,
        edge_src_pos=input_rows[srcs],
        edge_dst_pos=output_rows[dsts],
        edge_weight=graph.edge_weight[eids],
        compute_pos_in_inputs=input_rows[compute_vertices],
        edge_src_global=srcs,
        edge_ids=eids,
    )
    if len(cache) >= _BLOCK_CACHE_CAP:
        cache.pop(next(iter(cache)))
    cache[key] = block
    return block


_BLOCK_CACHE_CAP = 256


def _positions(sorted_ids: np.ndarray, ids: np.ndarray, space: int) -> np.ndarray:
    """``np.searchsorted(sorted_ids, ids)`` where every id is one of the
    sorted unique ``sorted_ids``, all below ``space``: each id's index,
    read off a table indexed by id -- two linear passes, where a binary
    search per id costs a cache miss per step (on a closure-memo fill
    block, 17 k edges into 10 k inputs: 2.0 ms against 0.05 ms).  Only
    the table's entries for ``sorted_ids`` are written or read.
    """
    table = np.empty(space, dtype=np.int64)
    table[sorted_ids] = np.arange(len(sorted_ids))
    return table[ids]


def closure_block(
    graph: Graph,
    compute_vertices: np.ndarray,
    input_vertices: np.ndarray,
    layer_index: int,
    in_edges: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> LayerBlock:
    """The block between two consecutive layers of a k-hop closure.

    ``compute_vertices`` and ``input_vertices`` are sorted unique, and
    ``input_vertices`` is ``compute_vertices`` plus the sources of its
    in-edges -- consecutive ``vertex_layers`` of
    :func:`~repro.graph.khop.khop_closure`.  That *is* the input space
    :func:`build_block` derives, so the block is field for field the
    same (same CSC edge order, hence the same per-row summation order)
    with positions read off the two sorted arrays instead of
    vertex-space tables.  ``in_edges`` is
    ``graph.csc.select(compute_vertices)``, passed in so that a walk
    which selected the edges to find ``input_vertices`` does not select
    them twice.
    """
    dsts, srcs, eids = in_edges
    space = graph.num_vertices
    return LayerBlock(
        layer_index=layer_index,
        compute_vertices=compute_vertices,
        input_vertices=input_vertices,
        edge_src_pos=_positions(input_vertices, srcs, space),
        edge_dst_pos=_positions(compute_vertices, dsts, space),
        edge_weight=graph.edge_weight[eids],
        compute_pos_in_inputs=_positions(input_vertices, compute_vertices, space),
        edge_src_global=srcs,
        edge_ids=eids,
    )


def build_block_from_edges(
    graph: Graph,
    compute_vertices: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    edge_ids: np.ndarray,
    layer_index: int,
) -> LayerBlock:
    """Build a block over an explicit (sampled) edge list.

    Used by the sampling engine: the edge set is a sampled subset of the
    in-edges of ``compute_vertices`` rather than all of them.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    compute_vertices, compute_mask, output_rows = _space(
        graph.num_vertices, np.asarray(compute_vertices, dtype=np.int64)
    )
    input_vertices, _, input_rows = _space(
        graph.num_vertices, src, compute_vertices
    )
    if len(dst) and not compute_mask[dst].all():
        raise KeyError("id not present in block space")
    return LayerBlock(
        layer_index=layer_index,
        compute_vertices=compute_vertices,
        input_vertices=input_vertices,
        edge_src_pos=input_rows[src],
        edge_dst_pos=output_rows[dst],
        edge_weight=graph.edge_weight[edge_ids],
        compute_pos_in_inputs=input_rows[compute_vertices],
        edge_src_global=src,
        edge_ids=edge_ids,
    )
