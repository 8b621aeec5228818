"""The per-layer dataflow program IR compiled from an :class:`EnginePlan`.

The paper's core architectural claim (Section 4) is that graph ops and
NN ops decouple into an explicit dataflow::

    GetFromDepNbr -> ScatterToEdge -> EdgeForward -> GatherByDst
                  -> VertexForward

whose backward is auto-generated (``PostToDepNbr`` mirrors the gather).
:func:`compile_layers` makes that flow first-class, and is the only
place a :class:`LayerProgram` is built (full-batch plans, sampled
rounds and tensor-parallel layers alike): every (layer, worker) pair
gets a tuple of typed steps recording *where* each input row comes from
(local read, DepComm fetch over the wire, staleness-bounded cached
read, DepCache recompute) and how much graph/NN work the layer does,
plus one :class:`ExchangePhase` per layer for the mirror
synchronisation.  The IR holds time-invariant quantities only (counts,
flops, byte volumes); the accountant reads them from the compiled
program and evaluates them against the device profile *at charge
time*, so straggler faults and online re-planning see current hardware,
and the overlap pass (:mod:`.passes`) annotates the IR instead of
patching engine code.

:func:`compile_program` adds the one thing only the full-batch executor
reads: every block's :class:`InputRoute`, the (source worker, source
row) of each input row, compiled once.  ``GetFromDepNbr`` and
``PostToDepNbr`` follow that index and derive nothing at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.comm.buffers import PositionIndexedBuffer
from repro.execution.plan import EnginePlan


@dataclass(frozen=True)
class GetFromDepNbrStep:
    """Assemble a block's input rows, split by provenance.

    ``num_local`` rows are read from the worker's own layer output (or
    feature matrix), ``num_fetch`` arrive over the wire this layer
    (DepComm, ``C_i^l``), ``num_cached`` are staleness-bounded cached
    reads (``H_i^l``), and ``num_recompute`` were produced locally from
    cached dependency subtrees (DepCache, ``R_i^l`` closure interior).
    """

    kind = "get_from_dep_nbr"
    num_inputs: int
    num_local: int
    num_fetch: int
    num_cached: int
    num_recompute: int
    fetch_bytes: int
    cached_bytes: int


@dataclass(frozen=True)
class ScatterToEdgeStep:
    """Stage source-vertex rows onto the block's edges."""

    kind = "scatter_to_edge"
    num_edges: int


@dataclass(frozen=True)
class EdgeForwardStep:
    """Per-edge message computation (the sparse share of the layer)."""

    kind = "edge_forward"
    num_edges: int
    sparse_flops: float


@dataclass(frozen=True)
class GatherByDstStep:
    """Aggregate edge messages per destination vertex."""

    kind = "gather_by_dst"
    num_edges: int
    num_outputs: int


@dataclass(frozen=True)
class VertexForwardStep:
    """Per-vertex NN op (the dense share of the layer)."""

    kind = "vertex_forward"
    num_outputs: int
    dense_flops: float


@dataclass
class ComputeSpec:
    """Static inputs of one worker's layer-compute timing split.

    ``chunk_edges[j]`` / ``chunk_vertices[j]`` describe the work tied to
    the chunk arriving from source worker ``j`` (edges whose sources are
    received, vertices crossing the wire including refresh traffic);
    ``local_edges`` is the communication-independent share; ``d_in`` is
    the column count a received row is staged at (the layer's input
    width, or the worker's slice of it in a tensor-parallel layer).  The
    accountant turns these into seconds with the *current* device
    profile, preserving the pre-IR arithmetic bit for bit.
    """

    sparse_flops: float
    dense_flops: float
    num_edges: int
    d_in: int
    chunk_edges: np.ndarray
    chunk_vertices: np.ndarray
    local_edges: int


@dataclass
class ExchangePhase:
    """One layer's mirror-synchronisation superstep.

    ``volumes[s, r]`` are the forward fetch bytes, ``refresh_volumes``
    the staleness-bounded share (moved only on refresh epochs); the
    accountant charges these matrices (the backward pass their
    transposes) -- nothing re-derives them from the plan.
    ``fold_dense[w]`` is pass-written metadata: when set, the accountant
    may fold worker ``w``'s VertexForward time into this exchange's
    communication window (see :func:`.passes.run_passes`).
    """

    layer: int
    volumes: np.ndarray
    refresh_volumes: np.ndarray
    bytes_per_message: float
    refresh_entries: int
    fold_dense: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.fold_dense is None:
            self.fold_dense = np.zeros(self.volumes.shape[0], dtype=bool)

    def recv_chunks(self, worker: int) -> int:
        """Incoming chunks (distinct senders) for ``worker``, counting
        the refresh share: a refresh epoch moves it through the same
        exchange window as the fetch share."""
        sends = (self.volumes[:, worker] + self.refresh_volumes[:, worker]) > 0
        return int(sends.sum() - sends[worker])

    def total_bytes(self) -> int:
        off = ~np.eye(self.volumes.shape[0], dtype=bool)
        return int(self.volumes[off].sum())


@dataclass(frozen=True)
class InputRoute:
    """Where a block's input rows are read and their gradients posted.

    ``buffer`` is Section 4.3's position index over the block's input
    rows, keyed by the worker whose layer-``l-1`` output holds each row:
    ``buffer.source_rows(j)`` are the input rows read from worker ``j``
    (ascending) and ``src_rows[buffer.chunk_slice(j)]`` their rows in
    ``j``'s output.  ``sources`` lists the workers with a non-empty
    chunk in the order gradients are posted: the block's own worker
    first, then ascending.
    """

    buffer: PositionIndexedBuffer
    src_rows: np.ndarray
    sources: Tuple[int, ...]


@dataclass
class WorkerLayerProgram:
    """The typed steps one worker runs for one layer."""

    worker: int
    layer: int
    steps: Tuple
    compute: ComputeSpec
    stale_rows: Optional[np.ndarray]  # block-input row positions of H_i^l
    # Set by compile_program for every block the full-batch executor
    # gathers (layer >= 2; worker 0 only in a tensor-parallel layer).
    route: Optional[InputRoute] = None


@dataclass
class LayerProgram:
    """One layer of the program: an exchange phase + per-worker steps.

    Tensor-parallel layers carry *two* exchange phases: ``exchange``
    slices the input rows across workers before aggregation and
    ``post_exchange`` transposes the slices back to full-width rows at
    their owners afterwards.  ``post_exchange is None`` for every
    mirror-exchange (DepComm/DepCache/CACHED) layer.
    """

    layer: int
    exchange: ExchangePhase
    workers: List[WorkerLayerProgram]
    post_exchange: Optional[ExchangePhase] = None

    @property
    def is_tp(self) -> bool:
        return self.post_exchange is not None

    @property
    def compute_specs(self) -> List[ComputeSpec]:
        return [wp.compute for wp in self.workers]


@dataclass
class Program:
    """The compiled per-layer dataflow program for one engine plan."""

    num_layers: int
    num_workers: int
    dims: List[int]
    layers: List[LayerProgram]


def _compute_specs(engine, plan: EnginePlan, l: int) -> List[ComputeSpec]:
    """Layer ``l``'s static timing quantities, one per worker."""
    m = engine.cluster.num_workers
    layer = engine.model.layer(l)
    d_in = engine.dims[l - 1]
    # owner_if_received[v]: v's owner while v is a received source of
    # the worker in hand, ``m`` (local) otherwise; reset after each.
    owner_if_received = None
    specs = []
    for w in range(m):
        block = plan.blocks[l - 1][w]
        dense_flops = float(layer.dense_flops(block))
        chunk_edges = np.zeros(m, dtype=np.int64)
        chunk_vertices = np.zeros(m, dtype=np.int64)
        local_edges = 0
        sparse_flops = 0.0
        if block.num_edges:
            sparse_flops = float(layer.sparse_flops(block))
            comm_set = plan.comm_ids[l - 1][w]
            stale_set = plan.stale_deps[l - 1][w]
            local_edges = block.num_edges
            # Stale-cached sources count as received: their rows arrive
            # over the wire on refresh epochs and are staged from the
            # host-resident cache otherwise, paying the same H2D copy.
            if len(comm_set) or len(stale_set):
                if owner_if_received is None:
                    owner_if_received = np.full(engine.graph.num_vertices, m)
                for ids in (comm_set, stale_set):
                    owner_if_received[ids] = engine.assignment[ids]
                per_owner = np.bincount(
                    owner_if_received[block.edge_src_global], minlength=m + 1
                )
                for ids in (comm_set, stale_set):
                    owner_if_received[ids] = m
                chunk_edges = per_owner[:m]
                local_edges = int(per_owner[m])
                chunk_vertices = (
                    plan.exchanges[l - 1].counts[:, w]
                    + plan.refresh_exchanges[l - 1].counts[:, w]
                )
        specs.append(ComputeSpec(
            sparse_flops=sparse_flops,
            dense_flops=dense_flops,
            num_edges=block.num_edges,
            d_in=d_in,
            chunk_edges=chunk_edges,
            chunk_vertices=chunk_vertices,
            local_edges=local_edges,
        ))
    return specs


def _gather_step(engine, plan: EnginePlan, l: int, w: int) -> GetFromDepNbrStep:
    block = plan.blocks[l - 1][w]
    remote = int((engine.assignment[block.input_vertices] != w).sum())
    num_fetch = len(plan.comm_ids[l - 1][w])
    num_cached = len(plan.stale_deps[l - 1][w])
    d_in = engine.dims[l - 1]
    return GetFromDepNbrStep(
        num_inputs=block.num_inputs,
        num_local=block.num_inputs - remote,
        num_fetch=num_fetch,
        num_cached=num_cached,
        num_recompute=remote - num_fetch - num_cached,
        fetch_bytes=num_fetch * d_in * 4,
        cached_bytes=num_cached * d_in * 4,
    )


def compile_layers(engine, plan: EnginePlan) -> List[LayerProgram]:
    """Lower every layer of ``plan`` to its :class:`LayerProgram` --
    full-batch plans, sampled rounds' plans and (through
    :func:`.tp.build_tp_layer_program`) tensor-parallel layers alike.

    Forward byte volumes come from ``engine.accountant.forward_volumes``
    -- the hook through which a baseline says what it ships (ROC's
    whole-block broadcast) -- and are compiled in.
    """
    m = engine.cluster.num_workers
    layers: List[LayerProgram] = []
    for l in range(1, engine.num_layers + 1):
        if plan.is_tp_layer(l):
            from repro.execution.tp import build_tp_layer_program

            layers.append(build_tp_layer_program(engine, plan, l))
            continue
        specs = _compute_specs(engine, plan, l)
        refresh_ex = plan.refresh_exchanges[l - 1]
        exchange = ExchangePhase(
            layer=l,
            volumes=engine.accountant.forward_volumes(plan, l),
            refresh_volumes=refresh_ex.volume_matrix(engine.dims[l - 1]),
            bytes_per_message=engine.dims[l - 1] * 4,
            refresh_entries=refresh_ex.total_vertices,
        )
        workers = []
        for w in range(m):
            block = plan.blocks[l - 1][w]
            stale = plan.stale_deps[l - 1][w]
            stale_rows = None
            if len(stale):
                stale_rows = np.flatnonzero(
                    np.isin(block.input_vertices, stale)
                )
            steps = (
                _gather_step(engine, plan, l, w),
                ScatterToEdgeStep(num_edges=block.num_edges),
                EdgeForwardStep(
                    num_edges=block.num_edges,
                    sparse_flops=specs[w].sparse_flops,
                ),
                GatherByDstStep(
                    num_edges=block.num_edges,
                    num_outputs=block.num_outputs,
                ),
                VertexForwardStep(
                    num_outputs=block.num_outputs,
                    dense_flops=specs[w].dense_flops,
                ),
            )
            workers.append(WorkerLayerProgram(
                worker=w,
                layer=l,
                steps=steps,
                compute=specs[w],
                stale_rows=stale_rows,
            ))
        layers.append(LayerProgram(layer=l, exchange=exchange, workers=workers))
    return layers


def _input_routes(engine, plan: EnginePlan, l: int):
    """``(worker, InputRoute)`` of every layer-``l`` block the executor
    gathers: a row the worker produced itself at layer ``l - 1`` (owned,
    recomputed, or aliased from a tensor-parallel layer's full-graph
    output) is read in place, any other row from its owner."""
    m = engine.cluster.num_workers
    # row_of[j, v]: vertex v's row in worker j's layer-(l-1) output, -1
    # where j does not compute v.  Lives for this call only.
    row_of = np.full((m, engine.graph.num_vertices), -1, dtype=np.int64)
    for j, block in enumerate(plan.blocks[l - 2]):
        row_of[j, block.compute_vertices] = np.arange(block.num_outputs)
    # A tensor-parallel layer runs once, on worker 0's copy of the
    # shared full-graph block; the other workers alias its output.
    for w in range(1 if plan.is_tp_layer(l) else m):
        ids = plan.blocks[l - 1][w].input_vertices
        source = np.where(row_of[w, ids] >= 0, w, engine.assignment[ids])
        buffer = PositionIndexedBuffer(source, m)
        packed_source, packed_ids = buffer.scatter(source), buffer.scatter(ids)
        src_rows = row_of[packed_source, packed_ids]
        if (src_rows < 0).any():
            k = int(np.argmax(src_rows < 0))
            raise RuntimeError(
                f"layer {l}, worker {w}: worker {packed_source[k]} owns "
                f"input vertex {packed_ids[k]} but does not compute it at "
                f"layer {l - 1} (plan bug)"
            )
        sources = [int(j) for j in np.flatnonzero(buffer.chunk_sizes())]
        # Posting order: own rows first, then source workers ascending.
        sources.sort(key=lambda j: j != w)
        yield w, InputRoute(buffer, src_rows, tuple(sources))


def compile_program(engine, plan: EnginePlan) -> Program:
    """Compile ``plan`` into the explicit per-layer dataflow program:
    :func:`compile_layers` plus the :class:`InputRoute` of every block
    the executor gathers.  The overlap marks are written separately
    (:func:`.passes.run_passes`).
    """
    layers = compile_layers(engine, plan)
    for lp in layers[1:]:
        for w, route in _input_routes(engine, plan, lp.layer):
            lp.workers[w].route = route
    return Program(
        num_layers=engine.num_layers,
        num_workers=engine.cluster.num_workers,
        dims=list(engine.dims),
        layers=layers,
    )
