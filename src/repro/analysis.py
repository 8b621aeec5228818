"""Analysis reports: graph shape and dependency structure.

Answers the questions a NeutronStar operator asks before provisioning:
how skewed/local is my graph, how many dependencies will each worker
have, and how much replication would DepCache incur -- the quantities
Section 2.3 identifies as deciding DepCache vs DepComm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.graph.graph import Graph
from repro.graph.khop import dependency_layers, khop_closure
from repro.partition.base import Partitioning


@dataclass
class GraphReport:
    """Structural statistics of one graph."""

    num_vertices: int
    num_edges: int
    avg_degree: float
    max_in_degree: int
    degree_gini: float
    chunk_locality: float  # fraction of edges within +-5% id distance


def gini(values: np.ndarray) -> float:
    """Gini coefficient in [0, 1); 0 = uniform, ->1 = concentrated."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = len(values)
    if n == 0 or values.sum() == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2 * (ranks * values).sum()) / (n * values.sum()) - (n + 1) / n)


def analyze_graph(graph: Graph) -> GraphReport:
    """Degree skew + id locality, the DepCache/DepComm deciders."""
    in_deg = graph.in_degrees()
    if graph.num_edges:
        distance = np.abs(graph.src - graph.dst)
        window = max(int(0.05 * graph.num_vertices), 1)
        locality = float((distance <= window).mean())
    else:
        locality = 1.0
    return GraphReport(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=graph.avg_degree,
        max_in_degree=int(in_deg.max()) if graph.num_vertices else 0,
        degree_gini=gini(in_deg),
        chunk_locality=locality,
    )


@dataclass
class DependencyReport:
    """Per-worker dependency structure under a partitioning."""

    num_workers: int
    num_layers: int
    remote_deps_per_worker: List[int]
    closure_vertices_per_worker: List[int]
    replication_factor: float
    comm_bytes_per_layer: int  # one direction, for a given dim


def analyze_dependencies(
    graph: Graph,
    partitioning: Partitioning,
    num_layers: int = 2,
    dim: int = 256,
) -> DependencyReport:
    """What DepComm would ship and DepCache would replicate."""
    remote = []
    closure = []
    total_copies = 0
    for w in range(partitioning.num_parts):
        owned = partitioning.part(w)
        deps = dependency_layers(graph, owned, num_layers)
        remote.append(int(len(deps[0])))
        layers, _ = khop_closure(graph, owned, num_layers)
        closure.append(int(len(layers[-1])))
        total_copies += len(layers[-1])
    return DependencyReport(
        num_workers=partitioning.num_parts,
        num_layers=num_layers,
        remote_deps_per_worker=remote,
        closure_vertices_per_worker=closure,
        replication_factor=total_copies / max(graph.num_vertices, 1),
        comm_bytes_per_layer=int(sum(remote) * dim * 4),
    )


def recommend_strategy(
    graph: Graph, partitioning: Partitioning, num_layers: int = 2
) -> str:
    """A rule-of-thumb recommendation from the structural report.

    This is *not* the cost model (Algorithm 4 makes the real per-vertex
    decision); it is the back-of-envelope heuristic Section 2.3's
    discussion suggests: high replication -> DepComm, low -> DepCache,
    otherwise Hybrid.
    """
    report = analyze_dependencies(graph, partitioning, num_layers)
    rf = report.replication_factor
    m = partitioning.num_parts
    if rf <= 1.0 + 0.15 * (m - 1):
        return "depcache"
    if rf >= 1.0 + 0.75 * (m - 1):
        return "depcomm"
    return "hybrid"
