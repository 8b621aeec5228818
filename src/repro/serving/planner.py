"""Per-request dependency planning (Algorithm 4, serving edition).

Training decides DepCache vs DepComm per *vertex* with the probed
constants ``T_v`` / ``T_e`` / ``T_c``; serving faces the same choice
per *request*: the worker answering a request for vertex ``v`` either
recomputes the k-hop closure of ``v`` from its replicated graph data
(**local**, DepCache-style -- pure compute, zero traffic) or drives a
distributed forward in which every worker computes its owned share and
ships boundary representations (**remote**, DepComm-style -- less
compute on the hot worker, cross-worker traffic priced at ``T_c``).
The :class:`RequestPlanner` prices both from the same
:class:`~repro.costmodel.probe.ProbeResult` the training planner uses
and memoizes the per-vertex closure profile, since Zipfian workloads
hit the same hot vertices over and over.  It is also the only place a
serving closure is built: :meth:`RequestPlanner.plan_batch` answers a
micro-batch with its mode *and* its union closure, merged from the
memoized per-vertex closures, so the server never walks the graph for
a vertex twice (the paper's DepCache retrieves a dependency's k-hop
closure once and recomputes from the replica).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.cluster.network import NetworkProfile
from repro.costmodel.probe import ProbeResult
from repro.graph.graph import Graph
from repro.graph.khop import khop_closure
from repro.partition.base import Partitioning
from repro.utils.ranges import sorted_unique

MODES = ("auto", "local", "remote")


@dataclass(frozen=True)
class ClosureProfile:
    """Memoized k-hop closure of one vertex, priced both ways.

    ``vertex_layers`` / ``edge_layers`` follow the
    :func:`~repro.graph.khop.khop_closure` convention: layer ``l``
    (1-based) computes ``vertex_layers[L - l]`` over
    ``edge_layers[L - l]``.
    """

    vertex: int
    owner: int
    vertex_layers: Tuple[np.ndarray, ...]
    edge_layers: Tuple[np.ndarray, ...]
    local_cost_s: float
    remote_cost_s: float
    cross_inputs: int  # closure inputs not owned by ``owner``

    @property
    def closure_size(self) -> int:
        return len(self.vertex_layers[-1])

    def preferred_mode(self) -> str:
        return "local" if self.local_cost_s <= self.remote_cost_s else "remote"


class BatchPlan(NamedTuple):
    """How one deduped micro-batch executes, and over what.

    ``vertex_layers`` / ``edge_layers`` are the batch's union closure,
    array for array what ``khop_closure(graph, vertices, L)`` returns.
    The arrays are read-only: a one-vertex batch is handed the
    planner's memoized layers themselves.
    """

    mode: str
    vertex_layers: Sequence[np.ndarray]
    edge_layers: Sequence[np.ndarray]


def _merged(layers: List[np.ndarray]) -> np.ndarray:
    """Union of sorted unique id arrays (one per seed), sorted unique."""
    if len(layers) == 1:  # most coordinator groups hold one distinct vertex
        return layers[0]
    if not layers:
        return np.empty(0, dtype=np.int64)
    merged = sorted_unique(np.concatenate(layers))
    merged.flags.writeable = False
    return merged


class RequestPlanner:
    """Prices local-recompute vs remote-fetch per requested vertex."""

    def __init__(
        self,
        graph: Graph,
        partitioning: Partitioning,
        constants: ProbeResult,
        num_layers: int,
        network: NetworkProfile,
        mode: str = "auto",
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if num_layers < 1:
            raise ValueError("num_layers must be positive")
        self.graph = graph
        self.partitioning = partitioning
        self.constants = constants
        self.num_layers = num_layers
        self.network = network
        self.mode = mode
        self._profiles: Dict[int, ClosureProfile] = {}

    # ------------------------------------------------------------------
    def profile(self, vertex: int) -> ClosureProfile:
        """The (memoized) priced closure of ``vertex``."""
        cached = self._profiles.get(vertex)
        if cached is not None:
            return cached

        L = self.num_layers
        vertex_layers, edge_layers = khop_closure(self.graph, [vertex], L)
        for layer in vertex_layers + edge_layers:
            layer.flags.writeable = False  # shared with every BatchPlan
        owner = self.partitioning.owner(vertex)
        assignment = self.partitioning.assignment

        # Local: the owner recomputes the whole closure serially.
        local = 0.0
        for l in range(1, L + 1):
            local += self.constants.vertex_cost(l) * len(vertex_layers[L - l])
            local += self.constants.edge_cost(l) * len(edge_layers[L - l])

        # Remote: each layer's compute set splits across its owners (the
        # critical path is the largest share), boundary inputs travel at
        # T_c, and each of the L exchange rounds pays a request+reply
        # latency.
        remote = 0.0
        cross_total = 0
        for l in range(1, L + 1):
            compute = vertex_layers[L - l]
            edges = edge_layers[L - l]
            owners = assignment[compute]
            shares = np.bincount(owners, minlength=self.partitioning.num_parts)
            remote += self.constants.vertex_cost(l) * int(shares.max())
            src = self.graph.src[edges]
            dst_owner = assignment[self.graph.dst[edges]]
            edge_shares = np.bincount(
                dst_owner, minlength=self.partitioning.num_parts
            )
            remote += self.constants.edge_cost(l) * int(edge_shares.max())
            # Inputs crossing an ownership boundary at this layer.
            crossing = assignment[src] != dst_owner
            cross = len(sorted_unique(
                src[crossing] * np.int64(self.partitioning.num_parts)
                + dst_owner[crossing]
            ))
            cross_total += cross
            remote += self.constants.comm_cost(l) * cross
            remote += 2.0 * self.network.latency_s

        profile = ClosureProfile(
            vertex=int(vertex),
            owner=owner,
            vertex_layers=tuple(vertex_layers),
            edge_layers=tuple(edge_layers),
            local_cost_s=local,
            remote_cost_s=remote,
            cross_inputs=cross_total,
        )
        self._profiles[vertex] = profile
        return profile

    def plan_batch(self, vertices: Sequence[int]) -> BatchPlan:
        """Mode and union closure of a deduped micro-batch.

        A batch executes one way or the other as a unit (its union
        closure shares frontiers), so the decision sums the memoized
        per-vertex estimates rather than re-profiling the union -- an
        upper bound on both sides that errs identically, which is what
        a relative comparison needs.

        The closure is merged, not walked: ``vertex_layers[t]`` of a
        union of seeds is the union of the seeds' ``vertex_layers[t]``,
        and ``edge_layers[t]`` is the in-edge set of ``vertex_layers[t]``
        so it merges the same way.

        Every mode profiles (and memoizes) each distinct vertex: a
        forced ``local`` / ``remote`` planner ignores the prices but
        needs the closures.  An empty batch plans to empty layers.
        """
        profiles = [self.profile(v) for v in vertices]
        if self.mode in ("local", "remote"):
            mode = self.mode
        else:
            local = sum(p.local_cost_s for p in profiles)
            remote = sum(p.remote_cost_s for p in profiles)
            mode = "local" if local <= remote else "remote"
        return BatchPlan(
            mode,
            [
                _merged([p.vertex_layers[t] for p in profiles])
                for t in range(self.num_layers + 1)
            ],
            [
                _merged([p.edge_layers[t] for p in profiles])
                for t in range(self.num_layers)
            ],
        )

    def choose_batch(self, vertices: List[int]) -> str:
        """Mode for a deduped micro-batch: cheaper summed estimate wins."""
        return self.plan_batch(vertices).mode
