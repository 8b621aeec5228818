"""Tensor-parallel (NeutronTP) layer programs and their charging.

A tensor-parallel layer splits the *feature dimension* across workers
instead of the graph: worker ``w`` holds slice ``w`` (``widths[w]``
columns of ``d^{l-1}``) of **every** vertex's input row, aggregates the
full edge set on that slice, and a second all-to-all transposes the
aggregated slices back into full-width rows at their owners, where the
dense op runs.  Dependency management disappears entirely -- there is
no DepCache/DepComm/CACHED choice to make, and partition skew cannot
concentrate neighborhood work on hub-heavy workers -- at the price of
two dense slice transposes per layer:

- phase A (``slice``):   ``volumes[s, r] = n_own[s] * widths[r] * 4``
- phase B (``unslice``): ``volumes[s, r] = n_own[r] * widths[s] * 4``

i.e. phase B is exactly phase A transposed.  Both are compiled into the
layer's ``exchange`` / ``post_exchange`` phases and charged from there
through :func:`repro.comm.scheduler.run_exchange` like every mirror
exchange, so faults, retry, ring scheduling, and the overlap pass all
apply.  Compute goes through the accountant's one
``layer_compute_split``: a TP ``ComputeSpec`` carries the column share
of the sparse flops and ``d_in`` = the worker's slice width, the only
cost-relevant difference from a mirror-exchange layer.

Numerically the recombined slices are the full-width rows, so the
executor computes a TP layer *once* on the shared full-graph block and
aliases the result across workers -- bit-identical to a single-worker
reference forward by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.comm.scheduler import ExchangeStats
from repro.execution.plan import EnginePlan
from repro.execution.program import (
    ComputeSpec,
    EdgeForwardStep,
    ExchangePhase,
    GatherByDstStep,
    LayerProgram,
    ScatterToEdgeStep,
    VertexForwardStep,
    WorkerLayerProgram,
)


def slice_widths(dim: int, num_workers: int) -> np.ndarray:
    """Split ``dim`` feature columns as evenly as possible.

    The first ``dim % num_workers`` workers take one extra column;
    widths of zero are legal (more workers than columns) and simply
    mean those workers move and compute nothing for the layer.
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    base, rem = divmod(int(dim), num_workers)
    widths = np.full(num_workers, base, dtype=np.int64)
    widths[:rem] += 1
    return widths


@dataclass(frozen=True)
class FeatureSliceAllToAllStep:
    """One slice-transpose all-to-all (the TP replacement for
    GetFromDepNbr/mirror exchange).

    ``direction`` is ``"slice"`` (owners scatter their rows' column
    slices to every worker) or ``"unslice"`` (aggregated slices return
    to full-width rows at their owners).  ``slice_dim`` is this
    worker's column count; byte counts exclude the resident diagonal.
    """

    kind = "feature_slice_all_to_all"
    direction: str
    num_vertices: int
    dim: int
    slice_dim: int
    send_bytes: int
    recv_bytes: int


def _owned_counts(engine) -> np.ndarray:
    m = engine.cluster.num_workers
    return np.asarray(
        [len(engine.partitioning.part(w)) for w in range(m)], dtype=np.int64
    )


def tp_exchange_volumes(
    engine, l: int
) -> Tuple[np.ndarray, np.ndarray, float]:
    """(slice volumes A, unslice volumes B, per-row message bytes).

    ``A[s, r]`` ships sender ``s``'s owned rows' slice ``r``;
    ``B = A.T`` returns slice ``s`` of receiver ``r``'s owned rows.
    """
    m = engine.cluster.num_workers
    d_in = engine.dims[l - 1]
    counts = _owned_counts(engine)
    widths = slice_widths(d_in, m)
    volumes = np.outer(counts, widths).astype(np.float64) * 4.0
    np.fill_diagonal(volumes, 0.0)
    # Slice transposes move one contiguous buffer per (sender, receiver)
    # pair -- no per-vertex message framing, so a chunk pays a single
    # enqueue (bytes_per_message = 0 in run_exchange's convention).
    # This is NeutronTP's structural advantage over the per-vertex
    # mirror exchange, whose chunks pay one enqueue per vertex row.
    return volumes, volumes.T.copy(), 0.0


def build_tp_layer_program(engine, plan: EnginePlan, l: int) -> LayerProgram:
    """Compile layer ``l`` as a tensor-parallel :class:`LayerProgram`."""
    m = engine.cluster.num_workers
    n = engine.graph.num_vertices
    d_in = engine.dims[l - 1]
    layer = engine.model.layer(l)
    block = plan.blocks[l - 1][0]
    counts = _owned_counts(engine)
    widths = slice_widths(d_in, m)
    volumes_a, volumes_b, msg_bytes = tp_exchange_volumes(engine, l)
    exchange = ExchangePhase(
        layer=l,
        volumes=volumes_a,
        refresh_volumes=np.zeros((m, m)),
        bytes_per_message=msg_bytes,
        refresh_entries=0,
    )
    post_exchange = ExchangePhase(
        layer=l,
        volumes=volumes_b,
        refresh_volumes=np.zeros((m, m)),
        bytes_per_message=msg_bytes,
        refresh_entries=0,
    )
    sparse_full = float(layer.sparse_flops(block)) if block.num_edges else 0.0
    per_out_dense = float(layer.dense_flops(block)) / max(block.num_outputs, 1)
    if block.num_edges:
        owners = engine.assignment[block.edge_src_global]
        edge_counts = np.bincount(owners, minlength=m)
    else:
        edge_counts = np.zeros(m, dtype=np.int64)
    workers: List[WorkerLayerProgram] = []
    for w in range(m):
        frac = widths[w] / d_in if d_in else 0.0
        chunk_edges = edge_counts.copy()
        chunk_vertices = counts.copy()
        chunk_edges[w] = 0
        chunk_vertices[w] = 0
        spec = ComputeSpec(
            sparse_flops=sparse_full * frac,
            dense_flops=per_out_dense * counts[w],
            num_edges=block.num_edges,
            # Received rows cross PCIe at slice width -- the one thing
            # that prices a TP chunk differently from a mirror chunk.
            d_in=int(widths[w]),
            chunk_edges=chunk_edges,
            chunk_vertices=chunk_vertices,
            local_edges=int(edge_counts[w]),
        )
        steps = (
            FeatureSliceAllToAllStep(
                direction="slice",
                num_vertices=n,
                dim=d_in,
                slice_dim=int(widths[w]),
                send_bytes=int(volumes_a[w].sum()),
                recv_bytes=int(volumes_a[:, w].sum()),
            ),
            ScatterToEdgeStep(num_edges=block.num_edges),
            EdgeForwardStep(
                num_edges=block.num_edges, sparse_flops=sparse_full * frac
            ),
            GatherByDstStep(
                num_edges=block.num_edges, num_outputs=block.num_outputs
            ),
            FeatureSliceAllToAllStep(
                direction="unslice",
                num_vertices=n,
                dim=d_in,
                slice_dim=int(widths[w]),
                send_bytes=int(volumes_b[w].sum()),
                recv_bytes=int(volumes_b[:, w].sum()),
            ),
            VertexForwardStep(
                num_outputs=int(counts[w]),
                dense_flops=per_out_dense * counts[w],
            ),
        )
        workers.append(WorkerLayerProgram(
            worker=w,
            layer=l,
            steps=steps,
            compute=spec,
            stale_rows=None,
        ))
    return LayerProgram(
        layer=l,
        exchange=exchange,
        workers=workers,
        post_exchange=post_exchange,
    )


def tp_charge_forward_layer(accountant, l: int) -> ExchangeStats:
    """Charge one TP layer's forward: phase A + sliced aggregation,
    phase B, then the owned-rows dense (fold-aware via the shared
    ``_charge_dense``, so the overlap marks apply here too)."""
    engine = accountant.engine
    timeline = engine.timeline
    m = engine.cluster.num_workers
    lp = accountant._layer(l)
    chunk_compute, local_compute, dense = accountant.layer_compute_split(l)
    starts = [timeline.now(w) for w in range(m)]
    stats_a = accountant._exchange(
        lp.exchange.volumes,
        lp.exchange.bytes_per_message,
        chunk_compute=chunk_compute,
        local_compute=local_compute,
    )
    engine._forward_stats.append(stats_a)
    post = lp.post_exchange
    stats_b = accountant._exchange(post.volumes, post.bytes_per_message)
    engine._forward_stats.append(stats_b)
    accountant._charge_dense(l, dense, stats_b, post.volumes)
    for w in range(m):
        timeline.record_span(
            w, "tp-slice-exchange", starts[w], timeline.now(w), layer=l
        )
    return stats_b


def tp_charge_backward_layer(accountant, l: int) -> None:
    """Charge one TP layer's backward: the reverse transposes (B then A,
    each the forward phase transposed) with the layer's backward
    compute overlapped, mirroring the mirror-exchange backward."""
    from repro.execution.accountant import BACKWARD_MULTIPLIER

    lp = accountant._layer(l)
    chunk_compute, local_compute, dense = accountant.layer_compute_split(l)
    compute = (
        chunk_compute.sum(axis=0) + local_compute + dense
    ) * BACKWARD_MULTIPLIER
    for phase in (lp.post_exchange, lp.exchange):
        accountant._exchange(
            phase.volumes.T, phase.bytes_per_message, local_compute=compute
        )
        compute = None


def tp_account_layer_memory(
    engine, plan: EnginePlan, l: int, w: int, tape, device
) -> int:
    """Register worker ``w``'s resident bytes for TP layer ``l``.

    Slices shrink everything graph-sized by ``widths[w] / d_in``: the
    input slice and aggregated slice span all ``n`` vertices at slice
    width, while full-width rows exist only for the owned set.  Returns
    the chunk-working-set contribution (0 unless chunked execution).
    """
    m = engine.cluster.num_workers
    block = plan.blocks[l - 1][w]
    layer = engine.model.layer(l)
    d_in = engine.dims[l - 1]
    width = int(slice_widths(d_in, m)[w])
    n_own = len(engine.partitioning.part(w))
    n = block.num_outputs
    # Input slice + aggregated slice (n rows each, slice width), plus
    # full-width owned aggregates and outputs.
    tape.allocate(
        2 * n * width * 4 + n_own * (d_in + engine.dims[l]) * 4,
        f"activations_l{l}",
    )
    frac = width / d_in if d_in else 0.0
    edge_bytes = int(
        layer.edge_tensor_bytes(block) * engine.tape_multiplier * frac
    )
    tape.allocate(edge_bytes, f"edge_tape_l{l}")
    if not engine.chunked_execution:
        return 0
    chunk_edges = engine.accountant.max_chunk_edges(plan, l, w)
    chunk_bytes = (
        int(edge_bytes * chunk_edges / block.num_edges)
        if block.num_edges
        else 0
    )
    io_bytes = chunk_edges * 12 + 2 * n * width * 4
    return chunk_bytes + io_bytes


def tp_feature_bytes(engine, plan: EnginePlan, w: int) -> int:
    """Resident feature bytes when layer 1 itself is tensor-parallel:
    owned rows full-width plus everyone else's rows at slice width."""
    m = engine.cluster.num_workers
    d0 = engine.dims[0]
    n = engine.graph.num_vertices
    width = int(slice_widths(d0, m)[w])
    n_own = len(engine.partitioning.part(w))
    return n_own * d0 * 4 + (n - n_own) * width * 4
