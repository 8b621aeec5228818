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
the inference server probes per-vertex entries through it, so the
freshness rule (serve within ``tau``, exact value on miss) cannot fork
between the two.  :func:`run_closure_forward` is the shared
union-closure forward; the serving layer executes batches through a
:class:`ClosureMemo`, which returns the same rows while computing each
(layer, vertex) row of its frozen model below the top once, wherever a
probe shows that BLAS multiplies the layer's weights row by row.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Tuple

import numpy as np

from repro.core import ops
from repro.core.blocks import LayerBlock, closure_block
from repro.core.feature_aggregate import same_objects
from repro.execution.plan import EnginePlan, EpochReport
from repro.tensor import functional as F
from repro.tensor.scatter import scatter_add_rows
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
        self, layer: int, vertex: int, key, allow_expired: bool = False
    ) -> Tuple[Optional[np.ndarray], Optional[float], bool]:
        """One-vertex read: ``(row | None, stamp, served_expired)``.

        A fresh entry is served with its stamp (the caller derives the
        staleness it is accepting).  With ``allow_expired`` -- the
        serve-stale-if-error degraded mode -- an expired entry is still
        returned, flagged, when one exists.  Counter effects match the
        training path: the lookup records the hit or miss; the expired
        fallback reads via ``peek`` and stays invisible to counters.
        """
        stamp = self.cache.stamp_of(layer, vertex)
        fresh, rows = self.cache.lookup(
            layer, np.array([vertex], dtype=np.int64), key
        )
        if rows is not None and fresh[0]:
            return rows[0], stamp, False
        if allow_expired and stamp is not None:
            row = self.cache.peek(layer, vertex)
            if row is not None:
                return row, stamp, True
        return None, stamp, False


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
                graph, compute_ids, input_ids, l, graph.csc.select(compute_ids)
            )
            prev = model.layer(l).forward(block, Tensor(prev)).data
            input_ids = compute_ids
    return prev


class _RowStore:
    """One layer's memoised rows, packed in the order they were computed.

    ``slot[v]`` is vertex ``v``'s row in ``rows`` (-1: not known).
    ``rows`` doubles when full, so the store holds at most twice the
    rows written, in allocations small enough to reuse memory the
    process has already freed.
    """

    def __init__(self, num_vertices: int, width: int):
        self.slot = np.full(num_vertices, -1, dtype=np.int32)
        self.rows = np.empty((64, width), dtype=np.float64)
        self.used = 0

    def known(self, ids: np.ndarray) -> np.ndarray:
        return self.slot.take(ids) >= 0

    def read(self, ids: np.ndarray) -> np.ndarray:
        return self.rows.take(self.slot.take(ids), axis=0)

    def write(self, ids: np.ndarray, rows: np.ndarray) -> None:
        end = self.used + len(ids)
        if end > len(self.rows):
            grown = np.empty((max(end, 2 * len(self.rows)), self.rows.shape[1]))
            grown[:self.used] = self.rows[:self.used]
            self.rows = grown
        self.slot[ids] = np.arange(self.used, end)
        self.rows[self.used:end] = rows
        self.used = end


def _layer_rows(layer, block: LayerBlock, h: np.ndarray) -> np.ndarray:
    """``layer.forward(block, Tensor(h)).data``, except that a one-row
    block runs its vertex half over the row twice: the gemm value, not
    the one-row product."""
    if block.num_outputs > 1:
        return layer.forward(block, Tensor(h)).data
    aggregated = ops.fused_scatter_gather(block, Tensor(h), layer.fused_reducer())
    h_dst = (
        Tensor(h.take(block.compute_pos_in_inputs.repeat(2), axis=0))
        if layer.vertex_reads_dst
        else None
    )
    return layer.vertex(h_dst, Tensor(aggregated.data.repeat(2, axis=0))).data[:1]


# ClosureMemo serves a batch only if every closure layer below the top
# is at most this tall, and probes each weight at every height up to it.
_PROBED_HEIGHT = 128


def _row_exact_to(weight: np.ndarray) -> int:
    """How tall a product ``rows @ weight`` stays row by row on this
    machine's BLAS: the largest ``n <= _PROBED_HEIGHT`` such that at
    every height from 2 to ``n`` each row comes out the same bytes as in
    a two-row product, whatever its position (1 if none).  The rows are
    float64 from a fixed seed, as the closure forward multiplies them; a
    height or position that takes another BLAS path rounds differently."""
    rows = np.random.default_rng(0).standard_normal((_PROBED_HEIGHT, weight.shape[0]))
    pairs = np.concatenate([
        rows[i:i + 2] @ weight for i in range(0, _PROBED_HEIGHT, 2)
    ])
    if (rows[[1, 0]] @ weight).tobytes() != pairs[[1, 0]].tobytes():
        return 1
    for n in range(3, _PROBED_HEIGHT + 1):
        if (rows[:n] @ weight).tobytes() != pairs[:n].tobytes():
            return n - 1
    return _PROBED_HEIGHT


class ClosureMemo:
    """Exact per-(layer, vertex) rows of a frozen model, filled on use.

    :meth:`forward` returns what :func:`run_closure_forward` returns for
    the same closure, byte for byte, but below the top layer it
    computes only the rows that no earlier call produced.  It walks the
    closure top-down from the layer under the seeds and stops at known
    rows.  Each layer with unknown rows gets one ``csc.select`` over
    them, which yields both their block and the rows they read one
    layer down.  Then it computes bottom-up, writes the new rows back,
    and runs the top layer over all seeds as the reference does.

    Why the bytes match.  A fused aggregate row is the row's own
    in-edges summed in CSC order, whatever else the block holds (the
    argument of :mod:`repro.core.feature_aggregate`).  The vertex half
    of GCN, GIN and SAGE is row-wise apart from its products with the
    layer's 2-D parameters, and a product row is row-wise only where
    BLAS takes the same path at every height and position.  That is
    machine- and shape-dependent, so the memo measures it: when it
    fills, :func:`_row_exact_to` finds, per layer below the top, the
    tallest product up to ``_PROBED_HEIGHT`` rows that every weight of
    the layer computes row by row.  A one-row product goes through gemv
    and rounds differently from any taller one, so a block with one
    unknown row runs its vertex half over the row twice.  The top layer
    needs no premise: it is the reference's own block.  A batch runs
    :func:`run_closure_forward` and writes nothing when

    - the model has a layer without a fused reducer (GAT, EdgeGated);
    - its closure has a one-row layer below the top (an isolated seed);
    - a closure layer below the top is taller than its probed height
      (on OpenBLAS 0.3.31 Haswell kernels a 602 -> 128 weight stops at
      12 rows and a 64 -> 41 one at 3; 64 -> 64 holds to 128).

    Rows are invalidated by identity, like
    :class:`~repro.core.feature_aggregate.FeatureAggregateStore`: the
    memo remembers the ``graph.features`` / ``graph.edge_weight`` arrays
    and every parameter's ``.data`` it was filled from, and empties
    itself (and probes again) when any of them is a different object
    (``Adam.step`` and ``load_state_dict`` rebind ``.data``).  Mutating
    those arrays in place, or swapping a layer or parameter object of
    the model, is unsupported.  Nothing is allocated before the first
    batch of a fused-reducer model that is not an isolated seed.

    ``rows_served[l - 1]`` counts the layer-``l`` rows the closure
    forward computes, ``rows_memoised[l - 1]`` how many of them the memo
    spared (none at the top), and ``bypassed`` the batches run by
    :func:`run_closure_forward`.
    """

    def __init__(self, model, graph):
        self.model = model
        self.graph = graph
        L = model.num_layers
        self.rows_served = [0] * L
        self.rows_memoised = [0] * L
        self.bypassed = 0
        self._fused = all(
            model.layer(l).fused_reducer() is not None for l in range(1, L + 1)
        )
        self._params = model.parameters()
        self._filled_from: Optional[tuple] = None
        self._stores: Optional[List[_RowStore]] = None
        self._exact_to: List[int] = []

    def forward(self, vertex_layers) -> np.ndarray:
        """``run_closure_forward(model, graph, vertex_layers)``."""
        model, graph = self.model, self.graph
        L = model.num_layers
        heights = [len(vertex_layers[L - l]) for l in range(1, L + 1)]
        for l in range(L):
            self.rows_served[l] += heights[l]
        below_top = heights[:-1]
        if not self._fused or 1 in below_top or max(below_top, default=0) > _PROBED_HEIGHT:
            self.bypassed += 1
            return run_closure_forward(model, graph, vertex_layers)
        stores = self._attach()
        if any(h > top for h, top in zip(heights, self._exact_to)):
            self.bypassed += 1
            return run_closure_forward(model, graph, vertex_layers)
        seeds = vertex_layers[0]
        # Top-down: each layer's unknown rows, the rows they read one
        # layer down, and their in-edges.  The top layer (no store)
        # computes every seed.
        steps = [(L, None, seeds, vertex_layers[1], graph.csc.select(seeds))]
        need = vertex_layers[1]
        for l in range(L - 1, 0, -1):
            store = stores[l - 1]
            compute = need[~store.known(need)]
            self.rows_memoised[l - 1] += heights[l - 1] - len(compute)
            if not len(compute):
                need = compute  # nothing below is read either
                continue
            in_edges = graph.csc.select(compute)
            if len(compute) == heights[l - 1]:
                # The whole closure layer: its inputs are the next one.
                need = vertex_layers[L - l + 1]
            else:
                need = sorted_unique(np.concatenate([in_edges[1], compute]))
            steps.append((l, store, compute, need, in_edges))
        with no_grad():
            for l, store, compute, inputs, in_edges in reversed(steps):
                h = (
                    graph.features[inputs].astype(np.float64)
                    if l == 1
                    else stores[l - 2].read(inputs)
                )
                block = closure_block(graph, compute, inputs, l, in_edges)
                if store is None:
                    return model.layer(l).forward(block, Tensor(h)).data
                store.write(compute, _layer_rows(model.layer(l), block, h))

    def _attach(self) -> List[_RowStore]:
        """Start empty, and probe each layer, on first use and again
        whenever an array the rows were computed from is not today's."""
        model, graph = self.model, self.graph
        sources = (graph.features, graph.edge_weight, *(p.data for p in self._params))
        if same_objects(self._filled_from, sources):
            return self._stores
        below_top = range(1, model.num_layers)
        self._stores = [
            _RowStore(graph.num_vertices, model.layer(l).out_dim) for l in below_top
        ]
        self._exact_to = [
            min(
                (_row_exact_to(p.data) for p in model.layer(l).parameters()
                 if p.data.ndim == 2),
                default=_PROBED_HEIGHT,
            )
            for l in below_top
        ]
        self._filled_from = sources
        return self._stores


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
        rows = np.empty((len(ids), engine.dims[l - 1]), dtype=np.float32)
        route = engine.program_.layers[l - 1].workers[w].route
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
            acc = np.zeros(shape, dtype=np.float32)
            grad_acc[layer_idx][worker] = acc
        scatter_add_rows(acc, positions, rows)

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
