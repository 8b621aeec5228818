"""Compile one round of sampled mini-batches onto the typed Program IR.

:func:`compile_round` takes the closures every worker sampled for the
current round and produces the same ``(EnginePlan, Program)`` pair a
full-batch engine builds once at plan time: it splits each worker's
bottom-layer remote inputs into fetched / reuse-covered / pinned rows,
fills the round's ``EnginePlan`` with the sampled blocks and that fetch
list, and hands the plan to the shared lowering
(:func:`repro.execution.program.compile_layers`).  There is no sampled
step, ``ExchangePhase`` or ``ComputeSpec`` constructor -- which is the
whole point of the subsystem: the accountant's exchange superstep
(faults, retry, overlap), the pass pipeline, chrome-trace spans, and
ops signals all price sampled rounds through the exact code path
full-batch training uses, instead of a private RPC formula.

The sampled dataflow differs from full-batch in one structural way,
and the plan says so: only layer 1 moves data (remote *feature* rows
for the bottom block's inputs); upper layers compute on activations
produced locally by the layer below, so their ``comm_ids`` and
exchanges are empty.  The layer-1 fetch list is the remote frontier
minus rows credited to the batch-dependency reuse (kappa: sources
covered by re-served neighbor lists are still resident from the
previous round) and minus rows pinned in the static feature cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

from repro.core.blocks import build_block_from_edges
from repro.core.mirror import MirrorExchange
from repro.execution.plan import EnginePlan
from repro.execution.program import Program, compile_layers
from repro.sampling.closure import SampledClosure

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class RoundTraffic:
    """Feature-plane bookkeeping for one compiled round."""

    remote_rows: int = 0  # unique remote bottom inputs, all workers
    fetch_rows: int = 0  # rows actually exchanged
    reused_rows: int = 0  # rows credited to kappa reuse
    pinned_rows: int = 0  # rows served by the static feature cache
    saved_bytes: int = 0  # feature bytes reuse + cache kept off the wire
    per_worker_fetch: Dict[int, int] = field(default_factory=dict)
    # Each worker's remote bottom inputs (sorted unique ids), so the
    # epoch loop's unique-remote count does not split them again.
    per_worker_remote: Dict[int, np.ndarray] = field(default_factory=dict)


def _empty_closure_block(graph):
    return build_block_from_edges(graph, _EMPTY, _EMPTY, _EMPTY, _EMPTY)


def _bottom_fetch(
    engine, closure: SampledClosure
) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Split one worker's bottom-layer remote inputs into fetched /
    reuse-covered / cache-pinned rows; returns ``(remote, fetch,
    counts)``."""
    w = closure.worker
    inputs = closure.blocks[0].input_vertices
    remote = inputs[engine.assignment[inputs] != w]
    # ``remote`` is sorted unique, so mask membership splits reproduce
    # intersect1d/setdiff1d element-identically without re-sorting.
    if len(closure.reused_srcs):
        reused_mask = np.zeros(engine.graph.num_vertices, dtype=bool)
        reused_mask[closure.reused_srcs] = True
        in_reused = reused_mask[remote]
        covered = remote[in_reused]
        rest = remote[~in_reused]
    else:
        covered = _EMPTY
        rest = remote
    if engine.feature_cache is not None:
        pinned_mask = np.zeros(engine.graph.num_vertices, dtype=bool)
        pinned_mask[engine.feature_cache.pinned_for(w)] = True
        in_pinned = pinned_mask[rest]
        pinned = rest[in_pinned]
        fetch = rest[~in_pinned]
    else:
        pinned = _EMPTY
        fetch = rest
    counts = {
        "remote": len(remote),
        "reused": len(covered),
        "pinned": len(pinned),
        "fetch": len(fetch),
    }
    return remote, fetch, counts


def compile_round(
    engine, closures: Dict[int, SampledClosure]
) -> Tuple[EnginePlan, Program, RoundTraffic]:
    """Compile one round of per-worker sampled closures.

    Returns ``(plan, program, traffic)``; the program has *not* yet had
    passes applied (callers run :func:`repro.execution.run_passes`).
    """
    m = engine.cluster.num_workers
    L = engine.num_layers
    graph = engine.graph

    fetch_lists: List[np.ndarray] = [_EMPTY] * m
    traffic = RoundTraffic()
    d0 = engine.dims[0]
    for w, closure in closures.items():
        remote, fetch, counts = _bottom_fetch(engine, closure)
        fetch_lists[w] = fetch
        traffic.per_worker_remote[w] = remote
        traffic.remote_rows += counts["remote"]
        traffic.reused_rows += counts["reused"]
        traffic.pinned_rows += counts["pinned"]
        traffic.fetch_rows += counts["fetch"]
        traffic.per_worker_fetch[w] = counts["fetch"]
        traffic.saved_bytes += (counts["reused"] + counts["pinned"]) * d0 * 4

    empty_lists = [_EMPTY] * m
    bottom_exchange = MirrorExchange(engine.assignment, fetch_lists, m)
    no_exchange = MirrorExchange(engine.assignment, empty_lists, m)
    exchanges = [bottom_exchange] + [no_exchange] * (L - 1)

    blocks: List[List] = []
    for l in range(1, L + 1):
        row = []
        for w in range(m):
            closure = closures.get(w)
            if closure is None:
                row.append(_empty_closure_block(graph))
            else:
                row.append(closure.blocks[l - 1])
        blocks.append(row)

    plan = EnginePlan(
        blocks=blocks,
        comm_ids=[list(fetch_lists)] + [list(empty_lists) for _ in range(L - 1)],
        exchanges=exchanges,
        cached_deps=[list(empty_lists) for _ in range(L)],
        stale_deps=[list(empty_lists) for _ in range(L)],
        refresh_exchanges=[no_exchange] * L,
    )

    layers = compile_layers(engine, plan)
    # Nothing is recomputed in a sampled round: a remote input row that
    # is not on the wire is already resident (reuse-covered, pinned, or
    # produced by the layer below), so the gather step books what the
    # full-batch lowering calls a recompute as a cached read.
    for lp in layers:
        row_bytes = engine.dims[lp.layer - 1] * 4
        for wp in lp.workers:
            gather = wp.steps[0]
            wp.steps = (replace(
                gather,
                num_cached=gather.num_recompute,
                num_recompute=0,
                cached_bytes=gather.num_recompute * row_bytes,
            ),) + wp.steps[1:]

    program = Program(
        num_layers=L,
        num_workers=m,
        dims=list(engine.dims),
        layers=layers,
    )
    return plan, program, traffic
