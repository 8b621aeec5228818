"""Per-dependency costs: Eq. 1 (redundant compute) and Eq. 2 (comm).

``t_r^l(u)`` walks the dependency subtree rooted at ``u`` down to the
features, counting only vertices/edges not already available locally
(owned, or previously cached in ``V_rep``); ``t_c^l(u)`` is the flat
per-vertex communication cost of layer ``l``.  Both are per-epoch
(forward + backward) modeled seconds.

There is one subtree walk, and it is array-valued: it advances many
roots level by level as ``(root, vertex)`` frontier pairs.  Algorithm 4
uses it through :meth:`DependencyCostModel.measure_independent` (the
initial sweep, which reads only cost and edges and so stops at level 1)
and :meth:`DependencyCostModel.measure_in_order` (the pop loop, down to
the features); ``t_r`` / ``commit`` are its one-root view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.costmodel.probe import _BACKWARD_COMM, ProbeResult
from repro.graph.graph import Graph


@dataclass
class SubtreeMeasurement:
    """One evaluation of Eq. 1 for a dependency ``u`` at layer ``l``."""

    cost_s: float
    new_vertices: List[np.ndarray]  # per level k = l-1 .. 0 (h^k to compute)
    new_edge_count: int
    memory_bytes: int


@dataclass
class SubtreeBatch:
    """Eq. 1 for many dependencies of one layer; arrays index the roots.

    ``fresh`` holds, per level ``k = l-1 .. 0``, the ``(root position,
    vertex)`` pairs newly computed for each root -- what
    :meth:`DependencyCostModel.commit_prefix` writes into ``V_rep``.

    Independent batches carry ``cost_s`` and ``new_edge_count`` only:
    their walk stops at level 1, because level 0 (the cached features)
    adds memory and nothing else, so ``memory_bytes`` is ``None``; and
    their subtrees overlap, so ``fresh`` is empty.
    """

    layer: int
    cost_s: np.ndarray
    new_edge_count: np.ndarray
    memory_bytes: Optional[np.ndarray] = None
    fresh: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


# Independent measurement walks the roots in chunks: the first is small,
# each next one is sized so its widest frontier holds about
# ``_TARGET_PAIRS`` (root, vertex) pairs, judged by the chunk before it.
_FIRST_CHUNK_ROOTS = 256
_MAX_CHUNK_GROWTH = 8
_TARGET_PAIRS = 1 << 21


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal keys."""
    starts = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


@dataclass(frozen=True)
class TensorParallelCostInputs:
    """Per-worker quantities that price the tensor-parallel option.

    Flipping a layer to tensor parallelism replaces this worker's
    per-dependency traffic with two dense slice transposes (NeutronTP):
    the worker ships ``(m-1)/m`` of its owned rows out and receives a
    ``1/m`` slice of everyone else's, then aggregates its slice over
    the *full* edge set -- so the compute side trades the worker's own
    edges for an even ``1/m`` share of all edges.  Passing no inputs
    (``tp=None``) disables the option: the four-way greedy degenerates
    to three-way.
    """

    num_workers: int
    num_vertices: int
    num_owned: int
    total_edges: int
    owned_in_edges: int


class DependencyCostModel:
    """Evaluates t_r / t_c for one worker's dependency decisions.

    Parameters
    ----------
    graph:
        The (normalised) training graph.
    dims:
        ``[d^(0), ..., d^(L)]`` layer dimensions.
    constants:
        Probed :class:`ProbeResult`.
    owned_mask:
        Boolean mask of the worker's own vertices (``V_i``): never
        counted as redundant.
    mu:
        Eq. 3's trimming factor for overlapped multi-hop dependencies.
    """

    def __init__(
        self,
        graph: Graph,
        dims: List[int],
        constants: ProbeResult,
        owned_mask: np.ndarray,
        mu: float = 1.0,
        tp: "TensorParallelCostInputs" = None,
    ):
        if not 0 < mu <= 1:
            raise ValueError("mu must be in (0, 1]")
        self.graph = graph
        self.dims = dims
        self.constants = constants
        self.owned_mask = owned_mask
        self.mu = mu
        self.tp = tp
        # V_rep: vertices whose h^k is already locally (re)computed, per
        # level k.  Level 0 entries mean "feature already cached".
        self.replicated: List[np.ndarray] = [
            np.zeros(graph.num_vertices, dtype=bool) for _ in range(len(dims))
        ]

    # ------------------------------------------------------------------
    def t_c(self, layer: int) -> float:
        """Eq. 2: communication cost of one dependency at ``layer``."""
        return self.constants.comm_cost(layer)

    def t_cached(self, layer: int, tau: float) -> float:
        """Amortized comm cost of a staleness-bounded cached dependency.

        A cached entry is re-fetched once every ``tau`` epochs, so its
        per-epoch cost is ``t_c(layer) / tau`` -- the communication-
        amortizing third option between Eq. 1 and Eq. 2.  ``tau <= 1``
        buys no amortization (the entry expires before it is ever served
        stale), so the cost degenerates to the full ``t_c``;
        ``tau = inf`` is a one-time fetch (zero steady-state cost).
        """
        if tau < 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        t_c = self.t_c(layer)
        if tau <= 1:
            return t_c
        if math.isinf(tau):
            return 0.0
        return t_c / float(tau)

    def cache_entry_bytes(self, layer: int) -> int:
        """Resident bytes of one cached ``h^{l-1}`` row at ``layer``."""
        return self.dims[layer - 1] * 4

    def t_tp(self, layer: int) -> float:
        """Modeled per-epoch cost of running ``layer`` tensor-parallel.

        Communication is the two slice transposes (slice before the
        layer, unslice after): this worker sends ``n_own * (m-1)/m``
        rows and receives ``(n - n_own) / m`` row-equivalents of width
        ``d^{l-1}``, each direction once forward and once backward
        (``_BACKWARD_COMM``), priced at the bulk per-byte rate plus one
        message latency per peer.  Compute is the *delta* against the
        hybrid plan: TP aggregates an even ``1/m`` share of all edges
        instead of the worker's own in-edges, so hub-heavy workers get
        a negative (beneficial) term and the deltas sum to zero across
        workers.  Returns ``inf`` when the TP option is unavailable.
        """
        tp = self.tp
        if tp is None or tp.num_workers < 2:
            return math.inf
        m = tp.num_workers
        d = self.dims[layer - 1]
        rows = (
            tp.num_owned * (m - 1) / m
            + (tp.num_vertices - tp.num_owned) / m
        )
        comm = _BACKWARD_COMM * (
            rows * d * 4 * self.constants.t_c_byte
            + 2 * (m - 1) * self.constants.t_msg
        )
        compute = (
            tp.total_edges / m - tp.owned_in_edges
        ) * self.constants.edge_cost(layer)
        return comm + compute

    def t_r(self, u: int, layer: int) -> SubtreeMeasurement:
        """Eq. 1: redundant-computation cost of caching ``u`` at ``layer``.

        Walks ``u``'s in-neighborhood down ``layer - 1`` levels; at each
        level ``k`` (the layer whose representation must be recomputed)
        it counts vertices and in-edges not owned and not already in
        ``V_rep``, weighting by the per-layer probed costs.  Level 0
        contributes memory (cached features) but no per-epoch compute.

        The one-root view of :meth:`measure_in_order`.
        """
        batch = self.measure_in_order(np.asarray([u], dtype=np.int64), layer)
        return SubtreeMeasurement(
            cost_s=float(batch.cost_s[0]),
            new_vertices=[vertices for _, vertices in batch.fresh],
            new_edge_count=int(batch.new_edge_count[0]),
            memory_bytes=int(batch.memory_bytes[0]),
        )

    def commit(self, u: int, layer: int, measurement: SubtreeMeasurement) -> None:
        """Add ``u``'s subtree to ``V_rep`` after deciding to cache it."""
        for k, fresh in zip(range(layer - 1, -1, -1), measurement.new_vertices):
            self.replicated[k][fresh] = True

    def measure_independent(self, roots: np.ndarray, layer: int) -> SubtreeBatch:
        """Eq. 1's ``cost_s`` and ``new_edge_count`` for every root
        against the *same* ``V_rep``.

        Entry ``j`` equals ``t_r(roots[j], layer)`` with nothing
        committed in between (Algorithm 4's initial sweep, lines 5-7),
        in those two fields; memory is checked at pop time, so the walk
        stops at level 1 and leaves ``memory_bytes`` unset.  A layer-1
        subtree is its root's features alone: all zeros, no walk.
        Overlapping subtrees are counted once per root, so the walk
        holds one ``(root, vertex)`` pair per reached vertex; the roots
        are taken in chunks sized from the previous chunk's peak pair
        count to keep that bounded on deep models.
        """
        roots = np.asarray(roots, dtype=np.int64)
        if layer == 1:
            return SubtreeBatch(
                layer=layer,
                cost_s=np.zeros(len(roots), dtype=np.float64),
                new_edge_count=np.zeros(len(roots), dtype=np.int64),
            )
        parts = []
        start, size = 0, _FIRST_CHUNK_ROOTS
        while True:
            batch, peak_pairs = self._walk(
                roots[start : start + size], layer, in_order=False
            )
            parts.append(batch)
            start += size
            if start >= len(roots):
                break
            size = max(
                1,
                min(
                    size * _MAX_CHUNK_GROWTH,
                    size * _TARGET_PAIRS // max(peak_pairs, 1),
                ),
            )
        return SubtreeBatch(
            layer=layer,
            cost_s=np.concatenate([p.cost_s for p in parts]),
            new_edge_count=np.concatenate([p.new_edge_count for p in parts]),
        )

    def measure_in_order(self, roots: np.ndarray, layer: int) -> SubtreeBatch:
        """Eq. 1 for roots that are committed one after another.

        Entry ``j`` equals ``t_r(roots[j], layer)`` taken after
        ``commit`` of ``roots[0..j-1]`` (Algorithm 4's pop loop, lines
        8-15, while every pop is cached).  ``V_rep`` itself is left
        untouched; :meth:`commit_prefix` applies the first ``count``
        subtrees once the caller knows where the loop stops.  ``roots``
        must be distinct.

        A vertex is fresh for the first root whose walk reaches it at a
        level and already replicated for every later one, so each level
        keeps one pair per vertex -- the smallest root position.
        """
        batch, _ = self._walk(
            np.asarray(roots, dtype=np.int64), layer, in_order=True
        )
        return batch

    def commit_prefix(self, batch: SubtreeBatch, count: int) -> None:
        """Add the subtrees of an in-order batch's first ``count`` roots
        to ``V_rep`` (one mask write per level)."""
        for k, (positions, vertices) in zip(
            range(batch.layer - 1, -1, -1), batch.fresh
        ):
            self.replicated[k][vertices[positions < count]] = True

    def _walk(self, roots: np.ndarray, layer: int, in_order: bool):
        """Level-synchronous subtree walk over ``(root position, vertex)``
        frontier pairs; returns the batch and the peak pair count.

        An in-order walk descends to level 0 and records memory and the
        fresh pairs; an independent one stops at level 1 and records
        cost and edges only.
        """
        num_roots = len(roots)
        num_vertices = self.graph.num_vertices
        csc = self.graph.csc
        indptr = csc.indptr
        cost = np.zeros(num_roots, dtype=np.float64)
        new_edges = np.zeros(num_roots, dtype=np.int64)
        memory = np.zeros(num_roots, dtype=np.int64) if in_order else None
        fresh: List[Tuple[np.ndarray, np.ndarray]] = []
        positions = np.arange(num_roots, dtype=np.int64)
        vertices = roots
        peak_pairs = num_roots
        lowest = 0 if in_order else 1
        for k in range(layer - 1, lowest - 1, -1):
            if k < layer - 1:
                # Descend: the level above's pairs become their in-edges'
                # sources.
                vertices = csc.other[csc._edge_range_index(vertices)]
                positions = np.repeat(positions, degrees)
                peak_pairs = max(peak_pairs, len(vertices))
            keep = ~(self.owned_mask[vertices] | self.replicated[k][vertices])
            positions, vertices = positions[keep], vertices[keep]
            if k < layer - 1:
                # Expanded frontiers repeat: keep one pair per (root,
                # vertex), or per vertex (first root wins) when earlier
                # roots' subtrees count as replicated.  Sort plus
                # adjacent-diff: ``np.unique``'s hash path is ~30x
                # slower on these keys.
                if in_order:
                    keys = vertices * num_roots + positions
                    keys.sort()
                    vertices = keys // num_roots
                    first = _group_starts(vertices)
                    vertices = vertices[first]
                    positions = keys[first] - vertices * num_roots
                else:
                    keys = positions * num_vertices + vertices
                    keys.sort()
                    keys = keys[_group_starts(keys)]
                    positions = keys // num_vertices
                    vertices = keys - positions * num_vertices
            if in_order:
                fresh.append((positions, vertices))
            count = np.bincount(positions, minlength=num_roots)
            if k == 0:
                # Features of the remaining frontier are cached (one-time
                # fetch, no per-epoch compute).
                memory += count * (self.dims[0] * 4)
                break
            degrees = indptr[vertices + 1] - indptr[vertices]
            edge_count = np.bincount(
                positions, weights=degrees, minlength=num_roots
            ).astype(np.int64)
            cost += self.mu * (
                count * self.constants.vertex_cost(k)
                + edge_count * self.constants.edge_cost(k)
            )
            new_edges += edge_count
            if in_order:
                memory += count * (self.dims[k] * 4) + edge_count * 12
        batch = SubtreeBatch(
            layer=layer,
            cost_s=cost,
            new_edge_count=new_edges,
            memory_bytes=memory,
            fresh=fresh,
        )
        return batch, peak_pairs
