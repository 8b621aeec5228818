"""The one pass over a compiled dataflow program: overlap marking.

The pass annotates the :class:`~repro.execution.program.Program` IR --
it never touches engine code or the plan -- and the accountant reads
the annotation at charge time.  Every engine runs it on every program
it compiles (full-batch plans and sampled rounds alike); it is part of
the system, not an option.

Paper Section 5.4 overlaps communication with computation: a
multi-chunk exchange leaves the receiver's GPU idle between the first
chunk landing and the last byte arriving, and the layer's
VertexForward (dense) work has no dependence on the incoming rows'
*values* arriving before its own chunk does -- so that window can
absorb dense time.  The pass only marks where folding is legal (2+
incoming chunks); how many seconds actually fold is the accountant's
call, clamped so wall-clock never increases
(:meth:`~repro.execution.accountant.LayerAccountant._overlap_saving`).

The ring send order and chunk pipelining of the paper's Section 4.3
are engine-level :class:`~repro.comm.scheduler.CommOptions`, not
passes.
"""

from __future__ import annotations

from repro.execution.program import Program


def run_passes(program: Program, engine) -> Program:
    """Mark the exchanges whose comm window may absorb VertexForward
    time, and return ``program``.

    Folding is legal only when a worker receives 2+ chunks, fetch and
    refresh shares counted together (:meth:`ExchangePhase.recv_chunks`):
    with a single incoming chunk there is no post-fill window (the GPU
    can start nothing until the only chunk lands), so single-chunk
    receivers are left unmarked.  For a tensor-parallel layer the dense
    work runs after the *unslice* transpose, so that is the window that
    can absorb it; the pre-aggregation slice exchange cannot.  The marks
    depend on the program alone; ``engine`` is unused.
    """
    for lp in program.layers:
        ex = lp.post_exchange if lp.post_exchange is not None else lp.exchange
        for w in range(program.num_workers):
            ex.fold_dense[w] = ex.recv_chunks(w) >= 2
    return program
