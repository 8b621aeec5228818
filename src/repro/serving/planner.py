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
hit the same hot vertices over and over.  :meth:`~RequestPlanner.profiles`
walks and prices many vertices in one vectorised pass, which is how the
server profiles a whole request stream up front.  The planner is also
the only place a serving closure is built:
:meth:`RequestPlanner.plan_batch` answers a micro-batch with its mode
*and* its union closure, merged from the memoized per-vertex closures,
so the server never walks the graph for a vertex twice (the paper's
DepCache retrieves a dependency's k-hop closure once and recomputes
from the replica).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.cluster.network import NetworkProfile
from repro.costmodel.probe import ProbeResult
from repro.graph.graph import Graph
from repro.graph.khop import khop_closures
from repro.partition.base import Partitioning
from repro.utils.ranges import sorted_unique

MODES = ("auto", "local", "remote")
# Vertices walked and priced per pass: a pass's arrays grow with the
# closures it holds, and a few hundred keep them to a few MB while each
# array call still covers many vertices.
_PROFILE_GROUP = 256


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
        return self.profiles([vertex])[0]

    def profiles(self, vertices: Sequence[int]) -> List[ClosureProfile]:
        """The (memoized) priced closures of ``vertices``, in order.

        Every vertex not profiled before is walked and priced in one
        vectorised pass (:func:`~repro.graph.khop.khop_closures`), so a
        caller that knows its requests up front -- the server, at the
        top of ``serve()`` -- pays a few array calls per hop, not a few
        per vertex.
        """
        new = [v for v in dict.fromkeys(map(int, vertices)) if v not in self._profiles]
        for start in range(0, len(new), _PROFILE_GROUP):
            self._profile_new(new[start:start + _PROFILE_GROUP])
        return [self._profiles[int(v)] for v in vertices]

    def _profile_new(self, vertices: List[int]) -> None:
        L = self.num_layers
        closures = khop_closures(self.graph, vertices, L)
        seeds = closures.seeds
        count = len(seeds)
        parts = self.partitioning.num_parts
        assignment = self.partitioning.assignment
        by_seed = np.arange(count, dtype=np.int64)

        def largest_share(owners_by_seed: np.ndarray, owners: np.ndarray) -> np.ndarray:
            """Per seed, the most of its entries one part owns."""
            shares = np.bincount(
                owners_by_seed * parts + owners, minlength=count * parts
            )
            return shares.reshape(count, parts).max(axis=1)

        # Local: the owner recomputes the whole closure serially.  Remote:
        # each layer's compute set splits across its owners (the critical
        # path is the largest share), boundary inputs travel at T_c, and
        # each of the L exchange rounds pays a request+reply latency.
        # Per seed, the sums run in the order of the one-vertex formula.
        local = np.zeros(count)
        remote = np.zeros(count)
        cross_total = np.zeros(count, dtype=np.int64)
        for l in range(1, L + 1):
            compute = closures.vertex_ids[L - l]
            edges = closures.edge_ids[L - l]
            compute_sizes = np.diff(closures.vertex_ptr[L - l])
            edge_sizes = np.diff(closures.edge_ptr[L - l])
            local += self.constants.vertex_cost(l) * compute_sizes
            local += self.constants.edge_cost(l) * edge_sizes

            compute_seed = np.repeat(by_seed, compute_sizes)
            remote += self.constants.vertex_cost(l) * largest_share(
                compute_seed, assignment[compute]
            )
            edge_seed = np.repeat(by_seed, edge_sizes)
            src = self.graph.src[edges]
            dst_owner = assignment[self.graph.dst[edges]]
            remote += self.constants.edge_cost(l) * largest_share(edge_seed, dst_owner)
            # Inputs crossing an ownership boundary at this layer: unique
            # (source, destination owner) pairs per seed.
            crossing = assignment[src] != dst_owner
            pair_space = np.int64(self.graph.num_vertices) * parts
            pairs = sorted_unique(
                edge_seed[crossing] * pair_space
                + src[crossing] * np.int64(parts)
                + dst_owner[crossing]
            )
            cross = np.bincount(pairs // pair_space, minlength=count)
            cross_total += cross
            remote += self.constants.comm_cost(l) * cross
            remote += 2.0 * self.network.latency_s

        owners = assignment[seeds].tolist()
        for i, (vertex_layers, edge_layers) in enumerate(closures.layers()):
            vertex = int(seeds[i])
            self._profiles[vertex] = ClosureProfile(
                vertex=vertex,
                owner=owners[i],
                vertex_layers=tuple(vertex_layers),
                edge_layers=tuple(edge_layers),
                local_cost_s=float(local[i]),
                remote_cost_s=float(remote[i]),
                cross_inputs=int(cross_total[i]),
            )

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
        profiles = self.profiles(vertices)
        return BatchPlan(
            self._mode(
                sum(p.local_cost_s for p in profiles),
                sum(p.remote_cost_s for p in profiles),
            ),
            [
                _merged([p.vertex_layers[t] for p in profiles])
                for t in range(self.num_layers + 1)
            ],
            [
                _merged([p.edge_layers[t] for p in profiles])
                for t in range(self.num_layers)
            ],
        )

    def modes(self, profiles: Sequence[ClosureProfile]) -> List[str]:
        """``plan_batch([p.vertex]).mode`` for each profile: the mode a
        one-vertex batch runs in."""
        return [self._mode(p.local_cost_s, p.remote_cost_s) for p in profiles]

    def _mode(self, local_s: float, remote_s: float) -> str:
        """The forced mode, or the cheaper of the two summed estimates."""
        if self.mode in ("local", "remote"):
            return self.mode
        return "local" if local_s <= remote_s else "remote"

    def choose_batch(self, vertices: List[int]) -> str:
        """Mode for a deduped micro-batch: cheaper summed estimate wins."""
        return self.plan_batch(vertices).mode
