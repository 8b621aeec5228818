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
*and* its union compute layers, merged from the memoized per-vertex
closures, so the server never walks the graph for a vertex twice (the
paper's DepCache retrieves a dependency's k-hop closure once and
recomputes from the replica).  Edges are never kept: a layer's in-edges
are its vertices' CSC runs, so an edge count is a sum of in-degrees and
whoever needs the edges themselves selects them.
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

    ``vertex_layers`` holds the L compute layers, in the
    :func:`~repro.graph.khop.khop_closure` convention: layer ``l``
    (1-based) computes ``vertex_layers[L - l]`` over its in-edges.  The
    input set ``vertex_layers[L]`` is not kept; nothing reads it.
    """

    vertex: int
    owner: int
    vertex_layers: Tuple[np.ndarray, ...]
    local_cost_s: float
    remote_cost_s: float


class BatchPlan(NamedTuple):
    """How one deduped micro-batch executes, and over what.

    ``vertex_layers`` are the batch's union compute layers, array for
    array ``khop_closure(graph, vertices, L)[0][:L]``.  The arrays are
    read-only: a one-vertex batch is handed the planner's memoized
    layers themselves.
    """

    mode: str
    vertex_layers: Sequence[np.ndarray]


def in_degrees(graph: Graph, vertices: np.ndarray) -> np.ndarray:
    """Each vertex's in-edge count: its CSC run's length."""
    indptr = graph.csc.indptr
    return indptr.take(vertices + 1) - indptr.take(vertices)


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

        def largest_share(owners_by_seed: np.ndarray, weights=None) -> np.ndarray:
            """Per seed, the most of its entries (or weights) one part owns."""
            shares = np.bincount(owners_by_seed, weights, minlength=count * parts)
            return shares.reshape(count, parts).max(axis=1)

        # Local: the owner recomputes the whole closure serially.  Remote:
        # each layer's compute set splits across its owners (the critical
        # path is the largest share), boundary inputs travel at T_c, and
        # each of the L exchange rounds pays a request+reply latency.
        # Per seed, the sums run in the order of the one-vertex formula.
        local = np.zeros(count)
        remote = np.zeros(count)
        num_vertices = np.int64(self.graph.num_vertices)
        for l in range(1, L + 1):
            compute = closures.vertex_ids[L - l]
            vertex_ptr = closures.vertex_ptr[L - l]
            in_degree, src, _ = closures.in_edges[L - l]
            compute_sizes = np.diff(vertex_ptr)
            edge_sizes = np.diff(np.append(0, np.cumsum(in_degree))[vertex_ptr])
            local += self.constants.vertex_cost(l) * compute_sizes
            local += self.constants.edge_cost(l) * edge_sizes

            owner = assignment[compute]
            seed_owner = np.repeat(by_seed, compute_sizes) * parts + owner
            remote += self.constants.vertex_cost(l) * largest_share(seed_owner)
            # A compute vertex brings its in-edges to its owner's share:
            # integer sums, exact in float64.
            remote += self.constants.edge_cost(l) * largest_share(seed_owner, in_degree)
            # Inputs crossing an ownership boundary at this layer: unique
            # (source, destination owner) pairs per seed, keyed
            # ``(seed * parts + owner) * V + source``.
            crossing = assignment[src] != np.repeat(owner, in_degree)
            pairs = sorted_unique(
                np.repeat(seed_owner, in_degree)[crossing] * num_vertices + src[crossing]
            )
            cross = np.bincount(pairs // (num_vertices * parts), minlength=count)
            remote += self.constants.comm_cost(l) * cross
            remote += 2.0 * self.network.latency_s

        owners = assignment[seeds].tolist()
        for i, vertex_layers in enumerate(closures.layers()):
            vertex = int(seeds[i])
            self._profiles[vertex] = ClosureProfile(
                vertex=vertex,
                owner=owners[i],
                vertex_layers=tuple(vertex_layers),
                local_cost_s=float(local[i]),
                remote_cost_s=float(remote[i]),
            )

    def plan_batch(self, vertices: Sequence[int]) -> BatchPlan:
        """Mode and union compute layers of a deduped micro-batch.

        A batch executes one way or the other as a unit (its union
        closure shares frontiers), so the decision sums the memoized
        per-vertex estimates rather than re-profiling the union -- an
        upper bound on both sides that errs identically, which is what
        a relative comparison needs.

        The layers are merged, not walked: ``vertex_layers[t]`` of a
        union of seeds is the union of the seeds' ``vertex_layers[t]``.

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
