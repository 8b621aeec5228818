"""Layer 1 aggregates a constant: a per-vertex memo of the feature aggregate.

Layer 1 reads raw features, which never change, so for a layer with a
:meth:`~repro.core.layers.GNNLayer.fused_reducer` the aggregate of a
vertex is a constant of the graph whenever its block row is *full*:
the row holds every in-edge of the vertex (row edge count = CSC
in-degree) at the graph's own weights.  :class:`FeatureAggregateStore`
keeps those rows.  Known rows are one row gather; the rest run
:func:`~repro.tensor.scatter.gather_scatter_rows` over their edges
only, straight from ``graph.features`` by global source id, and are
written back iff full.  A block whose weights are not the graph's
(``block.edge_weight_rescaled``: a LADIES rescale) bypasses the store:
every row is computed, nothing is read or kept.

The bits match the whole-block kernel by ``tensor/scatter.py``'s own
argument: a row's sum is ``((0 + m0) + m1) + ...`` over its own edges
in block order whichever of the rounds / hub tail / ``_add_at`` path
takes it, rows never interact, and a full row lists its in-edges in CSC
order in every block (blocks hold each in-edge at most once, a
vertex's run in CSC order), so the sum stored once is the sum every
later block would form.

The fill is lazy, row by row, inside the first forwards that touch a
vertex: nothing is allocated before the first call, and ``np.empty``
means only touched rows become resident (bound: one feature matrix).
The store remembers which ``graph.features`` / ``graph.edge_weight``
arrays it was filled from and empties itself when either is a different
object; mutating them in place is unsupported, as it is for
``graph._block_cache``.  Nothing else invalidates it: the value does
not depend on model weights, epoch or sampler state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.blocks import LayerBlock, _run_positions
from repro.graph.graph import Graph
from repro.tensor.scatter import gather_scatter_rows
from repro.tensor.tensor import Tensor
from repro.utils.ranges import expand_ranges


def same_objects(filled_from: Optional[tuple], sources: tuple) -> bool:
    """Whether a memo filled from ``filled_from`` still holds for
    ``sources``: the same objects, position by position.  Identity, not
    equality: a new array empties a memo, an in-place edit goes unseen."""
    return (
        filled_from is not None
        and len(filled_from) == len(sources)
        and all(a is b for a, b in zip(filled_from, sources))
    )


def reduce_features(features, src, dst, weights, counts, reducer: str) -> np.ndarray:
    """``FusedGatherScatter.forward`` over global source ids: the
    ``reducer`` of ``features[src]`` (times ``weights``, if given) by
    ``dst``, one row per ``counts`` entry (a row's edge count)."""
    out = gather_scatter_rows(features, src, dst, weights, len(counts))
    if reducer == "mean":
        out = out / np.maximum(counts.astype(out.dtype), 1.0).reshape(-1, 1)
    return out


class FeatureAggregateStore:
    """Layer-1 aggregates of one graph's raw features, filled on use."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.rows_served = 0  # layer-1 rows returned so far
        self.rows_memoised = 0  # of them, read from the store
        self._filled_from: Optional[tuple] = None
        self._reducer: Optional[str] = None
        self._rows: Optional[np.ndarray] = None
        self._known: Optional[np.ndarray] = None

    def forward(self, layer, block: LayerBlock) -> Tensor:
        """``layer.forward(block, features[block.input_vertices])`` for a
        fused-reducer ``layer``, bit for bit: the memoised aggregate,
        then the layer's own vertex half."""
        aggregated = Tensor(self.aggregate(block, layer.fused_reducer()))
        h_dst = (
            Tensor(self.graph.features[block.compute_vertices])
            if layer.vertex_reads_dst
            else None
        )
        return layer.vertex(h_dst, aggregated)

    def aggregate(self, block: LayerBlock, reducer: str) -> np.ndarray:
        """The ``reducer`` (``"weighted_sum"`` / ``"mean"``) of the
        feature rows of ``block``'s edges, one row per compute vertex.

        Only the rows it computes are read from the block: their edges
        are their runs, their weights ``graph.edge_weight`` at their
        edge ids."""
        vertices = block.compute_vertices
        num_rows = len(vertices)
        counts = block.edge_counts
        weighted = reducer == "weighted_sum"
        self.rows_served += num_rows
        if weighted and block.edge_weight_rescaled:
            return reduce_features(
                self.graph.features, block.edge_src_global, block.edge_dst_pos,
                block.edge_weight, counts, reducer,
            )
        self._attach(reducer)
        indptr = self.graph.csc.indptr
        full = counts == indptr.take(vertices + 1) - indptr.take(vertices)
        known = full & self._known.take(vertices)
        hits = int(np.count_nonzero(known))
        self.rows_memoised += hits
        if hits == num_rows:
            return self._rows.take(vertices, axis=0)
        if hits:
            # Only the unknown rows, over their own runs renumbered.
            missing = np.flatnonzero(~known)
            edges = expand_ranges((np.cumsum(counts) - counts)[missing], counts[missing])
            counts = counts[missing]
            src = block.edge_src_global.take(edges)
            dst = _run_positions(counts)
            eids = block.edge_ids.take(edges)
        else:
            missing = slice(None)
            src, dst, eids = block.edge_src_global, block.edge_dst_pos, block.edge_ids
        weights = self.graph.edge_weight.take(eids) if weighted else None
        computed = reduce_features(self.graph.features, src, dst, weights, counts, reducer)
        keep = np.flatnonzero(full[missing])
        kept = vertices[missing].take(keep)
        self._rows[kept] = computed.take(keep, axis=0)
        self._known[kept] = True
        if not hits:
            return computed
        # One gather for the known rows; the others' slots are overwritten.
        out = self._rows.take(vertices, axis=0)
        out[missing] = computed
        return out

    def _attach(self, reducer: str) -> None:
        """Start empty on first use, and again whenever the arrays (or
        the reducer) the rows were computed from are not today's."""
        graph = self.graph
        sources = (graph.features, graph.edge_weight)
        if same_objects(self._filled_from, sources) and self._reducer == reducer:
            return
        dtype = (
            np.result_type(graph.features.dtype, graph.edge_weight.dtype)
            if reducer == "weighted_sum"
            else graph.features.dtype
        )
        self._filled_from = sources
        self._reducer = reducer
        self._rows = np.empty(graph.features.shape, dtype=dtype)
        self._known = np.zeros(graph.num_vertices, dtype=bool)
