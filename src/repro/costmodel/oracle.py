"""Exhaustive (oracle) dependency partitioning for tiny instances.

The optimal R/C split is NP-hard (Section 3 reduces it to 0-1 integer
programming), so the paper uses the greedy of Algorithm 4.  For tiny
dependency sets the optimum is computable by enumerating every subset;
this module does exactly that, giving the test suite and the ablation
benchmark a ground truth to measure the greedy's optimality gap
against.

Only feasible for |D| up to ~16 per layer (2^|D| subsets).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.costmodel.costs import DependencyCostModel, TensorParallelCostInputs
from repro.costmodel.probe import ProbeResult
from repro.graph.graph import Graph
from repro.graph.khop import dependency_layers
from repro.partition.base import Partitioning


@dataclass
class OracleResult:
    """The exhaustive optimum for one worker's dependency split."""

    worker: int
    cached: List[np.ndarray]
    communicated: List[np.ndarray]
    total_cost_s: float
    subsets_evaluated: int


def _evaluate(
    graph: Graph,
    dims: List[int],
    constants: ProbeResult,
    owned_mask: np.ndarray,
    choice: List[np.ndarray],
    deps: List[np.ndarray],
    mu: float,
    memory_limit_bytes: Optional[int],
    tp: Optional[TensorParallelCostInputs] = None,
    tp_layers: Optional[List[bool]] = None,
) -> Optional[float]:
    """Total Eq.-3 cost of a concrete R assignment (None if infeasible).

    ``tp_layers`` marks layers priced tensor-parallel: their per-
    dependency terms are replaced by the single ``t_tp(l)`` term (the
    fourth option's flat slice-transpose cost).
    """
    cost_model = DependencyCostModel(
        graph, dims, constants, owned_mask, mu=mu, tp=tp
    )
    total = 0.0
    memory = 0
    for l, (cached_l, deps_l) in enumerate(zip(choice, deps), start=1):
        if tp_layers is not None and tp_layers[l - 1]:
            total += cost_model.t_tp(l)
            continue
        cached_set = set(cached_l.tolist())
        for u in deps_l:
            if int(u) in cached_set:
                measurement = cost_model.t_r(int(u), l)
                total += measurement.cost_s
                memory += measurement.memory_bytes
                cost_model.commit(int(u), l, measurement)
            else:
                total += cost_model.t_c(l)
    if memory_limit_bytes is not None and memory > memory_limit_bytes:
        return None
    return total


#: Enumeration limits: dependencies per layer, and subset combinations
#: across layers.
MAX_DEPS = 8
MAX_COMBINATIONS = 1 << 17


def oracle_partition(
    graph: Graph,
    partitioning: Partitioning,
    worker: int,
    dims: List[int],
    constants: ProbeResult,
    memory_limit_bytes: Optional[int] = None,
    mu: float = 0.8,
) -> OracleResult:
    """Enumerate every R/C split and return the cheapest feasible one.

    Raises ``ValueError`` when any layer has more than ``MAX_DEPS``
    dependencies or the cross-layer product of subsets exceeds
    ``MAX_COMBINATIONS`` (the enumeration would explode).
    """
    num_layers = len(dims) - 1
    owned = partitioning.part(worker)
    owned_mask = np.zeros(graph.num_vertices, dtype=bool)
    owned_mask[owned] = True
    deps = dependency_layers(graph, owned, num_layers)
    total_combinations = 1
    for d in deps:
        if len(d) > MAX_DEPS:
            raise ValueError(
                f"oracle infeasible: {len(d)} dependencies in a layer "
                f"(limit {MAX_DEPS})"
            )
        total_combinations *= 1 << len(d)
    if total_combinations > MAX_COMBINATIONS:
        raise ValueError(
            f"oracle infeasible: {total_combinations} subset combinations "
            f"(limit {MAX_COMBINATIONS})"
        )

    best_cost = np.inf
    best_choice: Optional[List[np.ndarray]] = None
    evaluated = 0
    # Enumerate the cross product of per-layer subsets.
    layer_subsets = [
        [
            np.asarray(sorted(c), dtype=np.int64)
            for size in range(len(d) + 1)
            for c in itertools.combinations(d.tolist(), size)
        ]
        for d in deps
    ]
    for choice in itertools.product(*layer_subsets):
        evaluated += 1
        cost = _evaluate(
            graph, dims, constants, owned_mask, list(choice), deps,
            mu, memory_limit_bytes,
        )
        if cost is not None and cost < best_cost:
            best_cost = cost
            best_choice = list(choice)
    if best_choice is None:
        raise RuntimeError("no feasible dependency split under the budget")
    communicated = [
        np.setdiff1d(d, c) for d, c in zip(deps, best_choice)
    ]
    return OracleResult(
        worker=worker,
        cached=best_choice,
        communicated=communicated,
        total_cost_s=float(best_cost),
        subsets_evaluated=evaluated,
    )


def greedy_cost(
    graph: Graph,
    partitioning: Partitioning,
    worker: int,
    dims: List[int],
    constants: ProbeResult,
    cached: List[np.ndarray],
    mu: float = 0.8,
    tp: Optional[TensorParallelCostInputs] = None,
    tp_layers: Optional[List[bool]] = None,
) -> float:
    """Eq.-3 cost of an arbitrary (e.g. Algorithm 4's) R assignment.

    With ``tp``/``tp_layers`` the assignment may flip whole layers to
    tensor parallelism (the four-way greedy's output shape).
    """
    owned = partitioning.part(worker)
    owned_mask = np.zeros(graph.num_vertices, dtype=bool)
    owned_mask[owned] = True
    deps = dependency_layers(graph, owned, len(dims) - 1)
    cost = _evaluate(
        graph, dims, constants, owned_mask, cached, deps, mu, None,
        tp=tp, tp_layers=tp_layers,
    )
    assert cost is not None
    return cost
