"""Optimization passes over the compiled dataflow program.

Passes annotate the :class:`~repro.execution.program.Program` IR --
they never touch engine code or the plan -- and the accountant reads
the annotations at charge time.  That is the point of compiling an
explicit program: a new optimization is a pass plus an accountant
interpretation, not engine surgery.

Each pass is a function ``(program, engine) -> None`` in
:data:`PASS_REGISTRY`, named by an engine's ``program_passes`` tuple:

- :func:`overlap_exchange` (paper Section 5.4): a multi-chunk exchange
  leaves the receiver's GPU idle between the first chunk landing and
  the last byte arriving, and the layer's VertexForward (dense) work
  has no dependence on the incoming rows' *values* arriving before its
  own chunk does -- so that window can absorb dense time.  The pass
  only marks where folding is legal (2+ incoming chunks); how many
  seconds actually fold is the accountant's call, clamped so
  wall-clock never increases
  (:meth:`~repro.execution.accountant.LayerAccountant._overlap_saving`).
- :func:`fuse_scatter_gather` lowers a layer's ScatterToEdge +
  EdgeForward + GatherByDst triple to one
  :class:`~repro.execution.program.FusedScatterGatherStep` when the
  layer declares a fusable reducer (simple weighted-sum or mean).  It
  is a lowering on the charged clock only: such a layer's ``forward``
  always runs the one gather-weight-reduce kernel, pass or no pass, so
  the numbers cannot move; what the pass changes is the step tuple and
  the charged sparse time (the materialised per-edge intermediate is
  skipped).

The ring send order and chunk pipelining of the paper's Section 4.3
are engine-level :class:`~repro.comm.scheduler.CommOptions`, not passes.
With no pass enabled the program charges and executes bit-identically
to the pre-pass engine.
"""

from __future__ import annotations

from repro.execution.program import FusedScatterGatherStep, Program


def overlap_exchange(program: Program, engine) -> None:
    """Mark exchanges whose comm window may absorb VertexForward time.

    Folding is legal only when a worker receives 2+ chunks: with a
    single incoming chunk there is no post-fill window (the GPU can
    start nothing until the only chunk lands), so single-chunk
    exchanges are left untouched -- the pass is a structural no-op
    there, which the property tests pin.
    """
    for lp in program.layers:
        # For a tensor-parallel layer the dense work runs after the
        # *unslice* transpose, so that is the window that can absorb
        # it; the pre-aggregation slice exchange cannot.
        ex = lp.post_exchange if lp.post_exchange is not None else lp.exchange
        for w in range(program.num_workers):
            if ex.recv_chunks(w) >= 2:
                ex.fold_dense[w] = True


def fuse_scatter_gather(program: Program, engine) -> None:
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


# The passes an engine can name in its ``program_passes`` tuple.
PASS_REGISTRY = {
    "overlap-exchange": overlap_exchange,
    "fuse-scatter-gather": fuse_scatter_gather,
}


def run_passes(program: Program, engine) -> Program:
    """Apply the passes ``engine.program_passes`` names, in order, and
    record their names on the program."""
    for name in engine.program_passes:
        try:
            run = PASS_REGISTRY[name]
        except KeyError:
            raise ValueError(
                f"unknown program pass {name!r} "
                f"(known: {', '.join(sorted(PASS_REGISTRY))})"
            ) from None
        run(program, engine)
        program.passes.append(name)
    return program
