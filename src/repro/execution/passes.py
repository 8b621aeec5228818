"""Optimization passes over the compiled dataflow program.

Passes annotate the :class:`~repro.execution.program.Program` IR --
they never touch engine code or the plan -- and the accountant reads
the annotations at charge time.  That is the point of compiling an
explicit program: a new optimization is a pass plus an accountant
interpretation, not engine surgery.

The first real pass is :class:`OverlapExchangePass` (paper Section
5.4): a multi-chunk exchange leaves the receiver's GPU idle between the
first chunk landing and the last byte arriving, and the layer's
VertexForward (dense) work has no dependence on the incoming rows'
*values* arriving before its own chunk does -- so that window can
absorb dense time.  The pass only marks where folding is legal
(2+ incoming chunks); how many seconds actually fold is the
accountant's call, clamped so wall-clock never increases
(:meth:`~repro.execution.accountant.LayerAccountant._overlap_saving`).

Three further passes grow the pipeline into a real optimizer:

- :class:`FuseScatterGatherPass` lowers a layer's ScatterToEdge +
  EdgeForward + GatherByDst triple to one
  :class:`~repro.execution.program.FusedScatterGatherStep` when the
  layer declares a fusable reducer (simple weighted-sum or mean).  It
  is a lowering on the charged clock only: such a layer's ``forward``
  always runs the one gather-weight-reduce kernel, pass or no pass, so
  the numbers cannot move; what the pass changes is the step tuple and
  the charged sparse time (the materialised per-edge intermediate is
  skipped).
- :class:`ChunkPipelinePass` annotates exchanges with a cross-layer
  chunk ``pipeline_depth``: each sender splits its chunk into sub-
  chunks so the receiver's overlapped compute starts after ``1/depth``
  of the first chunk, never later than before (depth 1 is identical).
- :class:`RingReorderPass` writes a staggered ring ``ring_order`` onto
  exchanges: senders rotate through receivers round by round, so no
  receiver NIC ever serves two chunks at once -- receive wire time is
  charged uncongested even when the engine-level R optimization is off.

Every pass mutates IR annotations only; with no pass enabled the
program charges and executes bit-identically to the pre-pass engine.
"""

from __future__ import annotations

from repro.execution.program import FusedScatterGatherStep, Program


class ProgramPass:
    """A program-to-program transform; mutates the IR in place."""

    name = "pass"

    def run(self, program: Program, engine) -> None:
        raise NotImplementedError


class OverlapExchangePass(ProgramPass):
    """Mark exchanges whose comm window may absorb VertexForward time.

    Folding is legal only when a worker receives 2+ chunks: with a
    single incoming chunk there is no post-fill window (the GPU can
    start nothing until the only chunk lands), so single-chunk
    exchanges are left untouched -- the pass is a structural no-op
    there, which the property tests pin.
    """

    name = "overlap-exchange"

    def run(self, program: Program, engine) -> None:
        for lp in program.layers:
            # For a tensor-parallel layer the dense work runs after the
            # *unslice* transpose, so that is the window that can absorb
            # it; the pre-aggregation slice exchange cannot.
            ex = lp.post_exchange if lp.post_exchange is not None else lp.exchange
            for w in range(program.num_workers):
                if ex.recv_chunks(w) >= 2:
                    ex.fold_dense[w] = True


class FuseScatterGatherPass(ProgramPass):
    """Lower simple-reducer layers to one segment-reduction step.

    A layer opts in by returning a reducer name from
    :meth:`~repro.core.layers.GNNLayer.fused_reducer` (GCN/GIN:
    ``"weighted_sum"``; SAGE: ``"mean"``; attention layers return
    ``None`` -- their edge function is not a plain reduction).  The
    worker step tuple ``(Get, Scatter, Edge, Gather, Vertex)`` becomes
    ``(Get, Fused, Vertex)`` and the layer is marked so the accountant
    discounts the charged sparse time (the executor runs the same
    kernel either way).  Tensor-parallel layers are left untouched.
    """

    name = "fuse-scatter-gather"

    def run(self, program: Program, engine) -> None:
        for lp in program.layers:
            if lp.is_tp:
                continue
            layer = engine.model.layer(lp.layer)
            reducer = layer.fused_reducer()
            if reducer is None:
                continue
            lp.fused_reducer = reducer
            for wp in lp.workers:
                steps = wp.steps
                if len(steps) != 5:
                    continue
                edge = steps[2]
                gather = steps[3]
                wp.steps = (
                    steps[0],
                    FusedScatterGatherStep(
                        num_edges=edge.num_edges,
                        num_outputs=gather.num_outputs,
                        sparse_flops=edge.sparse_flops,
                        reducer=reducer,
                    ),
                    steps[4],
                )


class ChunkPipelinePass(ProgramPass):
    """Annotate exchanges with a cross-layer chunk pipeline depth.

    Each sender splits its chunk into ``depth`` sub-chunks, so a
    receiver overlapping compute with communication (the P
    optimization) can start after the first *sub*-chunk lands: the
    pipeline fill term shrinks to ``fill / depth``.  Wall-clock can
    only shrink -- the phase span is ``max(comm, fill + compute)`` and
    only ``fill`` changes -- and phases without traffic are skipped.
    """

    name = "chunk-pipeline"

    def __init__(self, depth: int = 4):
        if depth < 1:
            raise ValueError(f"pipeline depth must be >= 1, got {depth}")
        self.depth = int(depth)

    def run(self, program: Program, engine) -> None:
        for lp in program.layers:
            for ex in (lp.exchange, lp.post_exchange):
                if ex is not None and ex.total_bytes() > 0:
                    ex.pipeline_depth = max(ex.pipeline_depth, self.depth)


class RingReorderPass(ProgramPass):
    """Reorder each exchange's chunk sends into a staggered ring.

    In round ``r`` worker ``i`` sends to ``(i + r) mod m``: every round
    has distinct receivers, so no receiver NIC serves two concurrent
    chunks and receive wire time is charged uncongested.  The written
    ``ring_order`` is the round-offset schedule ``(1, .., m-1)``.  A
    no-op (beyond the annotation) when the engine-level R optimization
    already staggers sends.
    """

    name = "ring-reorder"

    def run(self, program: Program, engine) -> None:
        order = tuple(range(1, program.num_workers))
        for lp in program.layers:
            for ex in (lp.exchange, lp.post_exchange):
                if ex is not None and ex.total_bytes() > 0:
                    ex.ring_order = order


# Constructors for the passes an engine can name in its
# ``program_passes`` tuple.
PASS_REGISTRY = {
    OverlapExchangePass.name: OverlapExchangePass,
    FuseScatterGatherPass.name: FuseScatterGatherPass,
    ChunkPipelinePass.name: ChunkPipelinePass,
    RingReorderPass.name: RingReorderPass,
}


def make_pass(name: str) -> ProgramPass:
    """Instantiate a registered pass by name."""
    try:
        return PASS_REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown program pass {name!r} "
            f"(known: {', '.join(sorted(PASS_REGISTRY))})"
        ) from None


def run_passes(program: Program, engine) -> Program:
    """Apply the passes ``engine.program_passes`` names, in order, and
    record their names on the program."""
    for name in engine.program_passes:
        p = make_pass(name)
        p.run(program, engine)
        program.passes.append(p.name)
    return program
