"""Partitioning result type and quality metrics.

Every partitioner returns a :class:`Partitioning`: an assignment of
vertices to ``m`` workers.  Edges follow their destination (the paper
assigns each vertex's *in*-edges to its worker, Algorithm 2/3 line 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.graph.graph import Graph


@dataclass
class Partitioning:
    """Assignment of vertices to workers.

    Attributes
    ----------
    assignment:
        ``assignment[v]`` is the worker owning vertex ``v``.
    num_parts:
        Number of workers ``m``.
    method:
        Name of the partitioner that produced this assignment.
    """

    assignment: np.ndarray
    num_parts: int
    method: str = "unknown"
    _parts: List[np.ndarray] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if len(self.assignment) == 0:
            raise ValueError("empty assignment")
        if self.assignment.min() < 0 or self.assignment.max() >= self.num_parts:
            raise ValueError("assignment references a worker out of range")

    @property
    def num_vertices(self) -> int:
        return len(self.assignment)

    def part(self, i: int) -> np.ndarray:
        """Vertex ids owned by worker ``i`` (ascending)."""
        if not self._parts:
            self._parts = [
                np.where(self.assignment == p)[0] for p in range(self.num_parts)
            ]
        return self._parts[i]

    def parts(self) -> List[np.ndarray]:
        return [self.part(i) for i in range(self.num_parts)]

    def owner(self, vertex: int) -> int:
        return int(self.assignment[vertex])

    # ------------------------------------------------------------------
    # Quality metrics
    # ------------------------------------------------------------------
    def edge_cut(self, graph: Graph) -> int:
        """Number of edges whose endpoints live on different workers."""
        return int((self.assignment[graph.src] != self.assignment[graph.dst]).sum())

    def edge_cut_fraction(self, graph: Graph) -> float:
        if graph.num_edges == 0:
            return 0.0
        return self.edge_cut(graph) / graph.num_edges

    def vertex_balance(self) -> float:
        """max part size / ideal part size (1.0 = perfectly balanced)."""
        sizes = np.bincount(self.assignment, minlength=self.num_parts)
        ideal = self.num_vertices / self.num_parts
        return float(sizes.max() / ideal) if ideal else 1.0

    def edge_balance(self, graph: Graph) -> float:
        """max in-edge load / ideal load (edges follow destinations)."""
        loads = np.bincount(
            self.assignment[graph.dst], minlength=self.num_parts
        ).astype(np.float64)
        ideal = graph.num_edges / self.num_parts
        return float(loads.max() / ideal) if ideal else 1.0

    def summary(self, graph: Graph) -> Dict[str, float]:
        return {
            "method": self.method,
            "num_parts": self.num_parts,
            "edge_cut_fraction": self.edge_cut_fraction(graph),
            "vertex_balance": self.vertex_balance(),
            "edge_balance": self.edge_balance(graph),
        }
