"""The traced entry points and the per-layer metrics computed from them.

Layers are the package's module names.  ``TARGETS`` is the fixed list
of public functions and methods the traced pass wraps; ``SPAN_METRICS``
says which spans each per-layer metric sums.  Every ``*_s`` metric here
is host seconds of *self* time per timed operation (one epoch, one
plan, one 4000-request serving run) unless its name says set-up.
"""

from __future__ import annotations

from typing import Dict, List

from tracer import LAYER, NAME, VALUE, Target, Tracer

_EXECUTOR = "repro.execution.executor:LayerExecutor."
_ACCOUNTANT = "repro.execution.accountant:LayerAccountant."
_CACHE = "repro.cache.historical:HistoricalEmbeddingCache."

TARGETS: List[Target] = [
    # graph/: gathers and k-hop closures; dataset generation is set-up.
    Target("repro.graph.adjacency:Adjacency.select", "graph"),
    Target("repro.graph.adjacency:Adjacency.neighbors_of_set", "graph"),
    Target("repro.graph.khop:khop_closure", "graph"),
    Target("repro.graph.khop:dependency_layers", "graph"),
    Target("repro.graph.khop:limited_bfs_in", "graph"),
    Target("repro.graph.datasets:load_dataset", "graph.load"),
    Target("repro.training.prep:prepare_graph", "graph.load"),
    Target("repro.partition.chunk:chunk_partition", "partition"),
    # core/: block build and the dataflow ops (minus their tensor work).
    Target("repro.core.blocks:build_block", "core.blocks"),
    Target("repro.core.blocks:build_block_from_edges", "core.blocks"),
    Target("repro.core.ops:scatter_to_edge", "core.ops"),
    Target("repro.core.ops:edge_forward", "core.ops"),
    Target("repro.core.ops:gather_by_dst", "core.ops"),
    Target("repro.core.ops:fused_scatter_gather", "core.ops"),
    Target("repro.core.ops:vertex_forward", "core.ops"),
    # costmodel/: Algorithm 4.  t_r runs ~5e5 times per social-large
    # plan, so it is counted, not timed; its time stays inside
    # partition_dependencies' self time.
    Target("repro.costmodel.partitioner:partition_dependencies", "costmodel"),
    Target("repro.costmodel.partitioner:vote_tp_layers", "costmodel"),
    Target("repro.costmodel.probe:probe_constants", "costmodel.probe"),
    Target("repro.costmodel.costs:DependencyCostModel.t_r", "costmodel", spans=False),
    # execution/: plan + compile + passes, executor numerics, accountant.
    Target("repro.execution.plan:build_engine_plan", "execution.plan"),
    Target("repro.execution.program:compile_program", "execution.plan"),
    Target("repro.execution.passes:run_passes", "execution.plan"),
    Target("repro.execution.accountant:account_memory", "execution.plan"),
    Target(_EXECUTOR + "forward", "execution.executor"),
    Target(_EXECUTOR + "backward", "execution.executor"),
    Target(_EXECUTOR + "gather_inputs", "execution.executor"),
    Target(_EXECUTOR + "route_input_grads", "execution.executor"),
    Target(_EXECUTOR + "accumulate", "execution.executor"),
    Target(_EXECUTOR + "compute_loss", "execution.executor"),
    Target("repro.execution.executor:run_closure_forward", "execution.executor"),
    Target(_ACCOUNTANT + "charge_forward_layer", "execution.accountant"),
    Target(_ACCOUNTANT + "charge_backward_layer", "execution.accountant"),
    Target(_ACCOUNTANT + "charge_allreduce", "execution.accountant"),
    Target(_ACCOUNTANT + "charge_loss", "execution.accountant"),
    Target(_ACCOUNTANT + "charge_epoch", "execution.accountant"),
    # tensor/: one span per autograd op, tagged with the op class.
    Target("repro.tensor.tensor:Function.apply", "tensor.apply"),
    Target("repro.tensor.tensor:Tensor.backward", "tensor.backward"),
    Target("repro.tensor.optim:Adam.step", "tensor.optim"),
    # comm/: every mirror exchange, with the bytes it moved.
    Target(
        "repro.comm.scheduler:run_exchange", "comm",
        value=lambda stats: stats.total_bytes,
    ),
    Target(_CACHE + "lookup", "cache"),
    Target(_CACHE + "store", "cache"),
    Target(_CACHE + "peek", "cache"),
    Target("repro.sampling.samplers:NeighborSampler.sample_batch", "sampling.sample"),
    Target("repro.sampling.compile:compile_round", "sampling.compile"),
    Target("repro.serving.server:InferenceServer.serve", "serving"),
    Target("repro.serving.planner:RequestPlanner.profile", "serving"),
    Target("repro.serving.planner:RequestPlanner.choose_batch", "serving"),
    Target("repro.serving.batcher:MicroBatcher.batches", "serving"),
]

# metric -> (trace layers summed, "self_s" | "calls" | "value").
# All are per timed operation, from spans under an ``op`` root.
SPAN_METRICS = {
    "graph.self_s": (("graph",), "self_s"),
    "core.blocks_self_s": (("core.blocks",), "self_s"),
    "core.blocks_calls": (("core.blocks",), "calls"),
    "core.ops_self_s": (("core.ops",), "self_s"),
    "costmodel.self_s": (("costmodel", "costmodel.probe"), "self_s"),
    "execution.plan_self_s": (("execution.plan",), "self_s"),
    "execution.executor_self_s": (("execution.executor",), "self_s"),
    "execution.accountant_self_s": (("execution.accountant",), "self_s"),
    "tensor.apply_s": (("tensor.apply",), "self_s"),
    "tensor.apply_calls": (("tensor.apply",), "calls"),
    "tensor.backward_s": (("tensor.backward",), "self_s"),
    "tensor.optim_s": (("tensor.optim",), "self_s"),
    "comm.exchange_self_s": (("comm",), "self_s"),
    "comm.exchange_calls": (("comm",), "calls"),
    "comm.exchange_bytes": (("comm",), "value"),
    "cache.self_s": (("cache",), "self_s"),
    "sampling.sample_self_s": (("sampling.sample",), "self_s"),
    "sampling.compile_self_s": (("sampling.compile",), "self_s"),
    "serving.self_s": (("serving",), "self_s"),
}

# metric -> span name counted, per timed operation.
NAME_CALLS = {
    "graph.select_calls": "Adjacency.select",
    "graph.khop_calls": "khop_closure",
    "cache.lookup_calls": "HistoricalEmbeddingCache.lookup",
    "serving.planner_calls": "RequestPlanner.profile",
}

# metric -> trace layers, host seconds of self time per set-up.
SETUP_METRICS = {
    "graph.load_s": ("graph.load",),
    "partition.self_s": ("partition",),
    "engines.setup_plan_s": ("costmodel", "costmodel.probe", "execution.plan", "core.blocks"),
}

# Read off the workload's own objects in ``collect()`` rather than off
# spans; 0 on the workloads that have no such object.
COLLECTED = (
    "cluster.charged_busy_share",
    "costmodel.cache_ratio",
    "execution.program_steps",
    "cache.hit_share",
    "sampling.sampled_edges",
    "serving.batches",
    "serving.cached_share",
)


def _under(tracer: Tracer, root_name: str):
    """Spans below a top-level span called ``root_name``, and how many
    such top-level spans there are."""
    roots = set(tracer.roots(root_name))
    root_of = tracer.root_of()
    below = [
        record for i, record in enumerate(tracer.spans)
        if root_of[i] in roots and i not in roots
    ]
    return below, len(roots)


def op_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the traced timed operations."""
    below, n_ops = _under(tracer, "op")
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    value: Dict[str, float] = {}
    by_name: Dict[str, int] = {}
    for record in below:
        layer = record[LAYER]
        self_s[layer] = self_s.get(layer, 0.0) + Tracer.self_time(record)
        calls[layer] = calls.get(layer, 0) + 1
        value[layer] = value.get(layer, 0.0) + record[VALUE]
        by_name[record[NAME]] = by_name.get(record[NAME], 0) + 1
    tables = {"self_s": self_s, "calls": calls, "value": value}
    out = {
        metric: sum(tables[kind].get(layer, 0) for layer in layers) / n_ops
        for metric, (layers, kind) in SPAN_METRICS.items()
    }
    for metric, name in NAME_CALLS.items():
        out[metric] = by_name.get(name, 0) / n_ops
    # Counted, not timed, so taken over the whole traced phase; nothing
    # outside the timed operations calls it.
    out["costmodel.t_r_calls"] = tracer.counts["DependencyCostModel.t_r"] / n_ops
    roots = [tracer.spans[i] for i in tracer.roots("op")]
    out["trace.unattributed_share"] = (
        sum(Tracer.self_time(r) for r in roots)
        / sum(Tracer.duration(r) for r in roots)
    )
    return out


def setup_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the traced set-ups."""
    below, n_setups = _under(tracer, "setup")
    out = {}
    for metric, layers in SETUP_METRICS.items():
        out[metric] = sum(
            Tracer.self_time(r) for r in below if r[LAYER] in layers
        ) / n_setups
    return out


def probe_s(*tracers: Tracer) -> float:
    """Mean host seconds of one ``probe_constants`` call, wherever it ran
    (inside ``plan()``: set-up on most workloads, timed on plan_social)."""
    probes = [
        Tracer.duration(record)
        for tracer in tracers for record in tracer.spans
        if record[LAYER] == "costmodel.probe"
    ]
    return sum(probes) / len(probes) if probes else 0.0
