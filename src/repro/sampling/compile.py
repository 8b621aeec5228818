"""Compile one round of sampled mini-batches onto the typed Program IR.

:func:`compile_round` takes the closures every worker sampled for the
current round and produces the same ``(EnginePlan, Program)`` pair a
full-batch engine builds once at plan time: it splits each worker's
bottom-layer remote inputs into pinned / resident / fetched rows,
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
minus rows pinned in the static feature cache and minus rows the
worker already holds: its remote bottom rows of its previous round in
the epoch (``resident``), which the caller passes in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Tuple

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

    remote_rows: int = 0  # remote bottom inputs, summed over workers
    fetch_rows: int = 0  # rows actually exchanged
    resident_rows: int = 0  # rows held from the worker's previous round
    pinned_rows: int = 0  # rows served by the static feature cache
    saved_bytes: int = 0  # feature bytes residency + cache kept off the wire
    per_worker_fetch: Dict[int, int] = field(default_factory=dict)
    # Each worker's remote bottom inputs (sorted unique ids): the epoch
    # loop's unique-remote count and the next round's resident rows.
    per_worker_remote: Dict[int, np.ndarray] = field(default_factory=dict)


def _empty_closure_block(graph):
    return build_block_from_edges(graph, _EMPTY, _EMPTY, _EMPTY, _EMPTY)


def _drop(ids: np.ndarray, held: np.ndarray, num_vertices: int) -> np.ndarray:
    """``ids`` without the ones in ``held``, in order.  A vertex-space
    mask takes a third of a ``searchsorted`` membership test's time."""
    if not len(held) or not len(ids):
        return ids
    mask = np.zeros(num_vertices, dtype=bool)
    mask[held] = True
    return ids[~mask[ids]]


def _bottom_fetch(
    engine, closure: SampledClosure, resident: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Split one worker's bottom-layer remote inputs: the rows pinned in
    the feature cache, then those of the rest in ``resident``, then the
    rows fetched.  Returns ``(remote, fetch, num_pinned, num_resident)``."""
    w = closure.worker
    n = engine.graph.num_vertices
    inputs = closure.blocks[0].input_vertices
    remote = inputs[engine.assignment[inputs] != w]
    cache = engine.feature_cache
    rest = remote if cache is None else _drop(remote, cache.pinned_for(w), n)
    fetch = _drop(rest, resident, n)
    return remote, fetch, len(remote) - len(rest), len(rest) - len(fetch)


def compile_round(
    engine,
    closures: Dict[int, SampledClosure],
    resident: Mapping[int, np.ndarray],
) -> Tuple[EnginePlan, Program, RoundTraffic]:
    """Compile one round of per-worker sampled closures.

    ``resident`` maps a worker to the remote rows it holds; a worker it
    does not name holds none.  Returns ``(plan,
    program, traffic)``; the program's overlap marks are not written yet
    (callers run :func:`repro.execution.run_passes`).
    """
    m = engine.cluster.num_workers
    L = engine.num_layers
    graph = engine.graph

    fetch_lists: List[np.ndarray] = [_EMPTY] * m
    traffic = RoundTraffic()
    d0 = engine.dims[0]
    for w, closure in closures.items():
        remote, fetch, num_pinned, num_resident = _bottom_fetch(
            engine, closure, resident.get(w, _EMPTY)
        )
        fetch_lists[w] = fetch
        traffic.per_worker_remote[w] = remote
        traffic.remote_rows += len(remote)
        traffic.resident_rows += num_resident
        traffic.pinned_rows += num_pinned
        traffic.fetch_rows += len(fetch)
        traffic.per_worker_fetch[w] = len(fetch)
        traffic.saved_bytes += (num_resident + num_pinned) * d0 * 4

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
    # is not on the wire is already resident (held from the previous
    # round, pinned, or produced by the layer below), so the gather step
    # books what the full-batch lowering calls a recompute as a cached
    # read.
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
