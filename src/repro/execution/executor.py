"""The executor: numerical execution of the compiled dataflow program.

Everything that touches tensor *values* lives here: the layer-by-layer
forward (``GetFromDepNbr`` + the NN ops), the loss, the auto-generated
backward with ``PostToDepNbr`` gradient routing, evaluation, and the
staleness-bounded cached-read path.  The accountant
(:mod:`.accountant`) owns the mirror-image concern -- turning the same
program into modeled seconds -- so an engine epoch is the executor and
accountant walking the program together.

Every engine runs these numerics unchanged -- the strategies differ in
the plan they fill, the baselines in their accountant -- so the executor
calls its own methods and has no per-engine subclass.

Who produces which input row is not worked out here: ``gather_inputs``
and ``route_input_grads`` follow the block's compiled
:class:`~repro.execution.program.InputRoute` (Section 4.3's position
index, built once by ``compile_program``), one chunk per source worker,
forward to read and backward to post.  Layer 1 of a fused-reducer
model gathers nothing: its aggregate of raw features is a constant of
the graph, read from the engine's
:class:`~repro.core.feature_aggregate.FeatureAggregateStore`.

:class:`StalenessBoundedReader` is the one code path for
bounded-staleness reads: training gathers override rows through it and
the inference server probes each batch's vertices through it, so the
freshness rule (serve within ``tau``, exact value on miss) cannot fork
between the two.  :func:`run_closure_forward` is the union-closure
forward of one batch; the serving layer answers from a
:class:`ClosureMemo` instead, which computes, once per request stream,
each (layer, vertex) row of its frozen model that the stream's
closures need, with the same per-layer call -- except layer 1 of a
fused-reducer model, aggregated straight from the features by global
id, as the layer-1 store does -- so a served row is a lookup.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.blocks import LayerBlock, _run_positions, closure_block
from repro.core.feature_aggregate import reduce_features, same_objects
from repro.execution.plan import EnginePlan, EpochReport
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.ranges import sorted_unique


class StalenessBoundedReader:
    """Bounded-staleness reads over one :class:`HistoricalEmbeddingCache`.

    Wraps the raw cache with the freshness *policy*: a cached entry
    within the staleness bound overrides the exact value; an expired or
    missing entry keeps it ("exact value on miss").  Both the training
    gather and the serving request path read through this class.
    """

    def __init__(self, cache):
        self.cache = cache

    def refresh(
        self, layer: int, ids: np.ndarray, rows: np.ndarray, key
    ) -> None:
        """Store exact rows, stamped ``key`` (epoch or microsecond)."""
        self.cache.store(layer, ids, rows, key)

    def override_with_cached(
        self,
        layer: int,
        ids: np.ndarray,
        key,
        rows: np.ndarray,
        row_positions: np.ndarray,
    ) -> None:
        """Overwrite ``rows[row_positions[fresh]]`` with cached values.

        ``rows`` arrives holding exact values; entries of ``ids`` still
        within the staleness bound at ``key`` replace them in place --
        the bounded-staleness approximation.
        """
        fresh, cached_rows = self.cache.lookup(layer, ids, key)
        if cached_rows is not None:
            rows[row_positions[fresh]] = cached_rows

    def probe(
        self, layer: int, ids: Sequence[int], keys: Sequence[int],
        allow_expired: Optional[Sequence[bool]] = None,
    ) -> Tuple[List[Optional[np.ndarray]], List[Optional[int]], List[bool]]:
        """Per-id reads, each at its own key: ``(rows, stamps,
        served_expired)``, one entry per id.

        A fresh entry is served (its row) with its stamp, from which the
        caller derives the staleness it is accepting.  Where
        ``allow_expired`` is set -- the serve-stale-if-error degraded
        mode -- an expired entry is still served, flagged.  Otherwise
        the row is ``None``.  Counter effects match the training path:
        the lookup records each hit, miss or expiration; stamps and the
        expired fallback read via ``peek`` and stay invisible to
        counters.
        """
        fresh = self.cache.lookup(layer, ids, keys)[0].tolist()
        served_expired = [False] * len(fresh)
        rows, stamps = self.cache.peek(layer, ids)
        for i, (row, f) in enumerate(zip(rows, fresh)):
            if f:
                continue
            if allow_expired is not None and allow_expired[i] and row is not None:
                served_expired[i] = True
            else:
                rows[i] = None
        return rows, stamps, served_expired


def run_closure_forward(model, graph, vertex_layers) -> np.ndarray:
    """Forward a union-closure through the model (no autograd, float64).

    ``vertex_layers[k]`` is the sorted vertex set whose layer-``(L-k)``
    values are needed; ``vertex_layers[L]`` the layer-0 (feature) set.
    This is the serving/replay execution path: the same top-down closure
    the training program compiles, shrunk to one batch's footprint.
    Layer ``l`` reads exactly ``vertex_layers[L - l + 1]``, the rows the
    previous layer produced, so each block comes straight from two
    consecutive closure layers and nothing is re-gathered in between.
    Returns the final-layer rows aligned with ``vertex_layers[0]``.
    """
    L = model.num_layers
    input_ids = vertex_layers[L]
    prev = graph.features[input_ids].astype(np.float64)
    with no_grad():
        for l in range(1, L + 1):
            compute_ids = vertex_layers[L - l]
            block = closure_block(
                graph, compute_ids, input_ids, graph.csc.select(compute_ids)
            )
            prev = model.layer(l).forward(block, Tensor(prev)).data
            input_ids = compute_ids
    return prev


class _RowStore:
    """One layer's memoised rows, packed in the order they were computed.

    ``slot[v]`` is vertex ``v``'s row in ``rows`` (-1: not known).  A
    fill reserves room for all its rows before writing them, so the
    buffer grows once per fill.
    """

    def __init__(self, num_vertices: int, width: int):
        self.slot = np.full(num_vertices, -1, dtype=np.int32)
        self.rows = np.empty((0, width), dtype=np.float64)
        self.used = 0

    def known(self, ids: np.ndarray) -> np.ndarray:
        return self.slot.take(ids) >= 0

    def read(self, ids: np.ndarray) -> np.ndarray:
        return self.rows.take(self.slot.take(ids), axis=0)

    def reserve(self, count: int) -> None:
        """Room for ``count`` more rows."""
        if self.used + count > len(self.rows):
            grown = np.empty((self.used + count, self.rows.shape[1]))
            grown[:self.used] = self.rows[:self.used]
            self.rows = grown

    def write(self, ids: np.ndarray, rows: np.ndarray) -> None:
        end = self.used + len(ids)
        self.slot[ids] = np.arange(self.used, end)
        self.rows[self.used:end] = rows
        self.used = end


# Rows per fill block: bounds a block's float64 input rows to a few MB
# while each array call still covers many rows.
_FILL_ROWS = 1024


class ClosureMemo:
    """Per-(layer, vertex) rows of a frozen model, filled per stream.

    :meth:`fill` computes, bottom-up, every (layer, vertex) row that the
    given one-seed closures need and no earlier fill made (the server
    calls it once per ``serve()`` with every requested vertex), in
    blocks of ``_FILL_ROWS`` rows, each one ``layer.forward`` over a
    :func:`~repro.core.blocks.closure_block` -- the call
    :func:`run_closure_forward` makes.  Layer 1 of a fused-reducer
    layer (GCN, GIN, SAGE) instead aggregates straight from
    ``graph.features`` by global source id and calls ``layer.vertex``
    (:meth:`_feature_rows`), the same bytes without copying the input
    rows; GAT's layer 1 takes the block path.  :meth:`rows` then reads
    the top-layer rows of filled vertices.  A vertex's row is computed
    once, so its bytes are the same whichever batch, mode or segment
    reads it; they lie within rounding of :func:`run_closure_forward`
    over any closure holding it (docs/serving.md, "Frozen weights").

    Rows are invalidated by identity, like
    :class:`~repro.core.feature_aggregate.FeatureAggregateStore`: when
    ``graph.features`` / ``graph.edge_weight`` or a parameter's ``.data``
    is not the object the rows were computed from, the next fill starts
    empty.  In-place mutation is unsupported.
    """

    def __init__(self, model, graph):
        self.model = model
        self.graph = graph
        self._params = model.parameters()
        self._filled_from: Optional[tuple] = None
        self._stores: List[_RowStore] = []

    def fill(self, closures: Sequence[Sequence[np.ndarray]]) -> None:
        """Compute every row the given one-seed closures need.

        ``closures`` holds each seed's ``vertex_layers``: at least the L
        compute layers of ``khop_closure(graph, [seed], L)[0]`` (the
        input set, if present, is not read).
        """
        self._attach()
        if not closures:
            return
        L = self.model.num_layers
        with no_grad():
            for l in range(1, L + 1):
                store = self._stores[l - 1]
                compute = sorted_unique(np.concatenate([c[L - l] for c in closures]))
                compute = compute[~store.known(compute)]
                store.reserve(len(compute))
                for start in range(0, len(compute), _FILL_ROWS):
                    self._fill_rows(l, compute[start:start + _FILL_ROWS])

    def _fill_rows(self, l: int, compute: np.ndarray) -> None:
        """Compute and keep layer ``l``'s rows of ``compute``, sorted
        unique, whose inputs are kept (or are features)."""
        graph = self.graph
        layer = self.model.layer(l)
        in_edges = graph.csc.select(compute)
        if l == 1 and layer.fused_reducer():
            out = self._feature_rows(layer, compute, in_edges)
        else:
            inputs = sorted_unique(np.concatenate([in_edges[1], compute]))
            x = (
                graph.features[inputs].astype(np.float64)
                if l == 1
                else self._stores[l - 2].read(inputs)
            )
            out = layer.forward(closure_block(graph, compute, inputs, in_edges), Tensor(x))
        self._stores[l - 1].write(compute, out.data)

    def _feature_rows(self, layer, compute: np.ndarray, in_edges) -> Tensor:
        """Layer 1 of a fused-reducer model, aggregated straight from
        ``graph.features`` by global source id, then ``layer.vertex``:
        the sampled engine's layer-1 rule, with no input rows copied.

        The weights are cast to float64 (ones for a mean), so a float32
        row times its weight is the exact float64 product the block path
        forms from float64 rows, and each row sums its products in the
        same CSC order: the rows keep their bytes."""
        graph = self.graph
        counts, src, eids = in_edges
        reducer = layer.fused_reducer()
        weights = (
            graph.edge_weight.take(eids).astype(np.float64)
            if reducer == "weighted_sum"
            else np.ones(len(eids))
        )
        aggregated = reduce_features(
            graph.features, src, _run_positions(counts), weights, counts, reducer
        )
        h_dst = (
            Tensor(graph.features[compute].astype(np.float64))
            if layer.vertex_reads_dst
            else None
        )
        return layer.vertex(h_dst, Tensor(aggregated))

    def rows(self, seeds: np.ndarray) -> np.ndarray:
        """The top-layer rows of ``seeds``, in order; each seed's closure
        was passed to :meth:`fill` since the arrays last changed."""
        return self._stores[-1].read(seeds)

    def _sources(self) -> tuple:
        graph = self.graph
        return (graph.features, graph.edge_weight, *(p.data for p in self._params))

    def _attach(self) -> None:
        """Start empty on first use, and again whenever an array the
        rows were computed from is not today's."""
        sources = self._sources()
        if same_objects(self._filled_from, sources):
            return
        self._stores = [
            _RowStore(self.graph.num_vertices, self.model.layer(l).out_dim)
            for l in range(1, self.model.num_layers + 1)
        ]
        self._filled_from = sources


class LayerExecutor:
    """Runs one engine's numeric forward/loss/backward over its program."""

    def __init__(self, engine):
        self.engine = engine
        self._readers: Optional[List[StalenessBoundedReader]] = None
        self._readers_for: Optional[object] = None

    def _reader(self, worker: int) -> StalenessBoundedReader:
        caches = self.engine._hist_caches
        if self._readers is None or self._readers_for is not caches:
            self._readers = [StalenessBoundedReader(c) for c in caches]
            self._readers_for = caches
        return self._readers[worker]

    # -- epoch ---------------------------------------------------------
    def run_epoch(self, optimizer=None) -> EpochReport:
        """One full-batch training epoch (forward, loss, backward, update)."""
        engine = self.engine
        plan = engine.plan()
        refreshed = engine._begin_epoch_cache()
        engine._forward_stats = []
        t_start = engine._sync()

        engine._in_training_forward = True
        try:
            h_values, in_tensors, out_tensors = self.forward(
                plan, training=True
            )
        finally:
            engine._in_training_forward = False
        loss_value, loss_tensors = self.compute_loss(plan, out_tensors)
        t_forward = engine._sync()

        self.backward(plan, in_tensors, out_tensors, loss_tensors)
        t_backward = engine._sync()

        engine.accountant.charge_allreduce()
        if optimizer is not None:
            optimizer.step()
            optimizer.zero_grad()
        t_end = engine._sync()

        engine._epoch += 1
        stats = engine._forward_stats
        return EpochReport(
            epoch=engine._epoch,
            epoch_time_s=t_end - t_start,
            loss=loss_value,
            comm_bytes=sum(s.total_bytes for s in stats),
            forward_time_s=t_forward - t_start,
            backward_time_s=t_backward - t_forward,
            allreduce_time_s=t_end - t_backward,
            cache_hits=sum(s.cache_hits for s in stats),
            cache_misses=sum(s.cache_misses for s in stats),
            refresh_bytes=sum(s.refresh_bytes for s in stats),
            comm_saved_bytes=sum(s.saved_bytes for s in stats),
            cache_refreshed=refreshed,
        )

    # -- forward -------------------------------------------------------
    def forward(self, plan: EnginePlan, training: bool):
        engine = self.engine
        m = engine.cluster.num_workers
        h_values: List[List[np.ndarray]] = [
            [None] * m for _ in range(engine.num_layers + 1)
        ]
        in_tensors: List[List[Optional[Tensor]]] = [
            [None] * m for _ in range(engine.num_layers)
        ]
        out_tensors: List[List[Tensor]] = [
            [None] * m for _ in range(engine.num_layers)
        ]
        for l in range(1, engine.num_layers + 1):
            engine.accountant.charge_forward_layer(l)
            layer = engine.model.layer(l)
            tp = plan.is_tp_layer(l)
            for w in range(m):
                if tp and w > 0:
                    # Tensor-parallel layer: the recombined slices ARE
                    # the full-width rows, so the full-graph block is
                    # computed once (worker 0) and aliased -- bit-
                    # identical to each worker's slice share by
                    # construction, with no redundant flops.
                    h_values[l][w] = h_values[l][0]
                    in_tensors[l - 1][w] = in_tensors[l - 1][0]
                    out_tensors[l - 1][w] = out_tensors[l - 1][0]
                    continue
                block = plan.blocks[l - 1][w]
                with contextlib.nullcontext() if training else no_grad():
                    if l == 1 and layer.fused_reducer():
                        # A constant of the graph: memoised per vertex,
                        # with no input tensor on the tape at all.
                        h_in = None
                        out = engine.feature_aggregates.forward(layer, block)
                    else:
                        rows = self.gather_inputs(plan, h_values, l, w, block)
                        # Layer-1 inputs are raw features: nothing routes
                        # a gradient into them, so the tape skips their
                        # adjoint.
                        h_in = Tensor(rows, requires_grad=training and l > 1)
                        out = layer.forward(block, h_in)
                h_values[l][w] = out.data
                in_tensors[l - 1][w] = h_in
                out_tensors[l - 1][w] = out
            engine._sync()
        return h_values, in_tensors, out_tensors

    def gather_inputs(
        self,
        plan: EnginePlan,
        h_values: List[List[np.ndarray]],
        l: int,
        w: int,
        block: LayerBlock,
    ) -> np.ndarray:
        """Assemble h^{l-1} rows for a block (GetFromDepNbr).

        Numerically, rows come from the feature matrix (layer 1 of a
        layer without a fused reducer; the others never ask) or from
        the producing worker's stored output (redundant copies are
        bit-identical, so reading the owner's copy is exact), one chunk
        per source worker of the block's compiled route.
        """
        engine = self.engine
        ids = block.input_vertices
        if l == 1:
            # Features are static, so a "stale" cached feature row is
            # bit-identical to a fresh fetch; no override needed.
            return engine.graph.features[ids]
        route = engine.program_.layers[l - 1].workers[w].route
        # In the producing layer's dtype: float32 in training, float64
        # for a float64 model (gradcheck, the golden's reference run).
        dtype = h_values[l - 1][route.sources[0]].dtype
        rows = np.empty((len(ids), engine.dims[l - 1]), dtype=dtype)
        for j in route.sources:
            src_rows = route.src_rows[route.buffer.chunk_slice(j)]
            rows[route.buffer.source_rows(j)] = h_values[l - 1][j][src_rows]
        self.apply_historical_cache(l, w, block, rows)
        return rows

    def apply_historical_cache(
        self, l: int, w: int, block: LayerBlock, rows: np.ndarray
    ) -> None:
        """Serve/refresh worker ``w``'s stale-cached rows for layer ``l``.

        ``rows`` arrives holding the exact (owner-computed) values.  On a
        training refresh epoch the stale set's rows are stored into the
        historical cache (exact, newly stamped).  Otherwise any entry
        still within the staleness bound overrides its exact row --
        that is the bounded-staleness approximation; expired or missing
        entries keep the exact value ("exact value on miss").
        """
        engine = self.engine
        if not engine._cache_active or l < 2:
            return
        srows = engine.program_.layers[l - 1].workers[w].stale_rows
        if srows is None or len(srows) == 0:
            return
        reader = self._reader(w)
        sids = block.input_vertices[srows]
        if engine._cache_refreshing and engine._in_training_forward:
            reader.refresh(l, sids, rows[srows], engine._epoch)
            return
        reader.override_with_cached(l, sids, engine._epoch, rows, srows)

    # -- loss ----------------------------------------------------------
    def compute_loss(self, plan, out_tensors):
        engine = self.engine
        m = engine.cluster.num_workers
        train_mask = engine.graph.train_mask
        if train_mask is None:
            raise ValueError("graph has no train mask; call set_split()")
        total_train = int(train_mask.sum())
        loss_tensors = []
        loss_value = 0.0
        for w in range(m):
            owned = engine.partitioning.part(w)
            mine = owned[train_mask[owned]]
            if len(mine) == 0:
                loss_tensors.append(None)
                continue
            rows = np.searchsorted(plan.blocks[-1][w].compute_vertices, mine)
            logits = out_tensors[engine.num_layers - 1][w][rows]
            log_probs = F.log_softmax(logits, axis=-1)
            picked = log_probs[
                (np.arange(len(mine)), engine.graph.labels[mine])
            ]
            loss_w = -picked.sum() / float(total_train)
            loss_tensors.append(loss_w)
            loss_value += float(loss_w.data)
            engine.accountant.charge_loss(w, len(mine))
        return loss_value, loss_tensors

    # -- backward ------------------------------------------------------
    def backward(self, plan, in_tensors, out_tensors, loss_tensors):
        engine = self.engine
        m = engine.cluster.num_workers
        # Pending output gradients per (layer, worker), aligned with the
        # worker's compute set rows.
        grad_acc: List[List[Optional[np.ndarray]]] = [
            [None] * m for _ in range(engine.num_layers)
        ]
        for l in range(engine.num_layers, 0, -1):
            tp = plan.is_tp_layer(l)
            for w in range(m):
                if l == engine.num_layers:
                    if loss_tensors[w] is not None:
                        loss_tensors[w].backward()
                else:
                    seed = grad_acc[l - 1][w]
                    if seed is None:
                        continue
                    out_tensors[l - 1][w].backward(seed)
                if l > 1 and not tp:
                    grad_in = in_tensors[l - 1][w].grad
                    if grad_in is not None:
                        self.route_input_grads(plan, grad_acc, l, w, grad_in)
            if l > 1 and tp:
                # TP layer: tensors are aliased across workers, so the
                # shared input grad (all per-worker loss/seed backwards
                # have accumulated into it by now) routes exactly once.
                grad_in = in_tensors[l - 1][0].grad
                if grad_in is not None:
                    self.route_input_grads(plan, grad_acc, l, 0, grad_in)
            engine.accountant.charge_backward_layer(l)
            engine._sync()

    def route_input_grads(self, plan, grad_acc, l, w, grad_rows):
        """PostToDepNbr: push input grads to whoever computed the value.

        The gradient rows are written into the route's send buffer and
        each source worker's chunk is accumulated in turn -- own rows
        first, then source workers ascending, ids ascending within each.

        Rows served from the historical cache on a non-refresh epoch are
        treated as constants: their value was not produced by the owner
        this epoch, so no gradient flows back (the standard historical-
        embedding approximation).  On refresh epochs the stale set's
        inputs are the owners' current values and gradients flow
        normally -- which is what makes ``tau = 0`` bit-identical to
        DepComm.
        """
        engine = self.engine
        wp = engine.program_.layers[l - 1].workers[w]
        route = wp.route
        packed = route.buffer.scatter(grad_rows)
        posted = None
        if engine._cache_active and not engine._cache_refreshing:
            if wp.stale_rows is not None and len(wp.stale_rows):
                posted = np.ones(len(grad_rows), dtype=bool)
                posted[wp.stale_rows] = False
                posted = route.buffer.scatter(posted)
        for j in route.sources:
            chunk = route.buffer.chunk_slice(j)
            positions, rows = route.src_rows[chunk], packed[chunk]
            if posted is not None and j != w:
                keep = posted[chunk]
                positions, rows = positions[keep], rows[keep]
            self.accumulate(plan, grad_acc, l - 2, j, positions, rows)

    def accumulate(self, plan, grad_acc, layer_idx, worker, positions, rows):
        engine = self.engine
        if len(positions) == 0:
            return
        if plan.is_tp_layer(layer_idx + 1):
            # The TP layer's output tensor is computed once (worker 0)
            # and aliased; every worker's compute set is the identical
            # full-vertex ordering, so positions transfer unchanged and
            # all gradient contributions accumulate into worker 0's
            # seed for the single shared backward.
            worker = 0
        acc = grad_acc[layer_idx][worker]
        if acc is None:
            shape = (
                plan.blocks[layer_idx][worker].num_outputs,
                engine.dims[layer_idx + 1],
            )
            acc = np.zeros(shape, dtype=rows.dtype)  # float64 stays float64
            grad_acc[layer_idx][worker] = acc
        # A route chunk lists each position once (compile_program builds
        # it from a position index), so this is one addition per cell,
        # as np.add.at would make.
        acc[positions] += rows

    # -- evaluation ----------------------------------------------------
    def evaluate(self, mask: Optional[np.ndarray] = None) -> float:
        """Accuracy over ``mask`` (default: test mask), forward-only."""
        engine = self.engine
        plan = engine.plan()
        if mask is None:
            mask = engine.graph.test_mask
        if mask is None:
            raise ValueError("graph has no test mask; call set_split()")
        h_values, _, out_tensors = self.forward(plan, training=False)
        correct = 0
        total = 0
        L = engine.num_layers
        for w in range(engine.cluster.num_workers):
            owned = engine.partitioning.part(w)
            mine = owned[mask[owned]]
            if len(mine) == 0:
                continue
            rows = np.searchsorted(plan.blocks[-1][w].compute_vertices, mine)
            predictions = h_values[L][w][rows].argmax(axis=1)
            correct += int((predictions == engine.graph.labels[mine]).sum())
            total += len(mine)
        return correct / total if total else 0.0
